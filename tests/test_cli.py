"""Command line front end: outputs, determinism, exit codes."""

import contextlib
import functools
import json
import os
import shlex
import sys
import tracemalloc

import pytest

from grouptensor import abelian, cli, fp
from grouptensor.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_cyclic(capsys):
    code, out, _ = run(capsys, "gamma", "Z_2")
    assert code == 0
    assert "gamma: Z_4" in out
    assert "group: Z_2" in out
    assert "input: sha256:" in out


def test_gamma_free_rank(capsys):
    code, out, _ = run(capsys, "gamma", "Z^3")
    assert code == 0
    assert "gamma: Z^6" in out


def test_gamma_canonicalizes_input(capsys):
    _, out1, _ = run(capsys, "gamma", "Z_6")
    _, out2, _ = run(capsys, "gamma", "Z_2 x Z_3")
    line = [ln for ln in out1.splitlines() if ln.startswith("gamma:")]
    assert line == [ln for ln in out2.splitlines() if ln.startswith("gamma:")]


def test_gamma_parse_error_exits_one(capsys):
    code, _, err = run(capsys, "gamma", "Z_banana")
    assert code == 1
    assert "position" in err


def test_gamma_refuses_an_unprintable_input_at_its_position(capsys):
    # With Python's 4,300-digit limit: Gamma(Z_d) = Z_2d needs d of at
    # most 4,299 digits, and Gamma(Z^r) = Z^(r(r+1)/2) r of at most 2,150.
    limit = sys.get_int_max_str_digits()
    d = 10 ** (limit - 1) - 2
    code, out, err = run(capsys, "gamma", f"Z_{d}")
    assert (code, err) == (0, "")
    assert f"gamma: Z_{2 * d}\n" in out
    for text, message in [
        ("Z_6" + "0" * (limit - 1), f"number of more than {limit - 1} digits (at position 0)"),
        ("Z x Z^1" + "0" * (limit // 2 + 50), f"free rank of more than {limit // 2} digits (at position 4)"),
    ]:
        code, out, err = run(capsys, "gamma", text)
        assert (code, out) == (1, "")
        assert message in err


def test_tensor_z2(capsys):
    code, out, _ = run(capsys, "tensor", "--group", "Z2")
    assert code == 0
    assert "order: 2" in out
    assert "construction: tensor square" in out
    assert "bookkeeping: 2 = 2 * 1" in out


def test_tensor_z2_exterior(capsys):
    code, out, _ = run(capsys, "tensor", "--group", "Z2", "--exterior")
    assert code == 0
    assert "order: 1" in out
    assert "construction: exterior square" in out


def test_tensor_both_strategies_agree(capsys):
    code, out, _ = run(capsys, "tensor", "--group", "D4", "--strategy", "both")
    assert code == 0
    assert "order: 32" in out
    assert "agreement: yes" in out


def test_tensor_from_presentation(capsys):
    code, out, _ = run(capsys, "tensor", "--presentation", "< a | a^3 >")
    assert code == 0
    assert "order: 3" in out
    assert "bookkeeping: 3 = 3 * 1" in out


def test_tensor_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "tensor", "--group", "S3")
    _, out2, _ = run(capsys, "tensor", "--group", "S3")
    assert out1 == out2


# Full reports pinned from a known-good build: enumeration internals may
# change, but the printed reports must stay byte-identical.
GOLDEN_REPORTS = [
    (
        ("tensor", "--group", "D4", "--strategy", "both"),
        "command: tensor --group D4 --strategy both\n"
        "input: sha256:080f626098377e96e40b2ff0260738034149998b08e5c086b940ae567580c32c\n"
        "group: D4\n"
        "construction: tensor square\n"
        "strategy: both\n"
        "order: 32\n"
        "abelianization: Z_2 x Z_2 x Z_2 x Z_4\n"
        "j2_order: 16\n"
        "derived_order: 2\n"
        "bookkeeping: 32 = 16 * 2\n"
        "kappa_digest: aafda1a6a2d83aac5f93b3070c604496dd43c653938874552eafeddc1f3b6e34\n"
        "agreement: yes\n"
    ),
    (
        ("tensor", "--group", "S3", "--exterior", "--format", "structured"),
        "{\n"
        '  "command": "tensor --group S3 --exterior --format structured",\n'
        '  "input_digest": "44d6a8a73eddb284d49799fdbfa2919a004ece6d2df3546eaa4e246048bcdf81",\n'
        '  "results": {\n'
        '    "abelianization": "Z_3",\n'
        '    "bookkeeping": "3 = 1 * 3",\n'
        '    "construction": "exterior square",\n'
        '    "derived_order": 3,\n'
        '    "group": "S3",\n'
        '    "j2_order": 1,\n'
        '    "kappa_digest": "6fd1eaf018afe562ce3009d8ec952f7e7ea49c6e3ae82043ebaed574d2d49023",\n'
        '    "order": 3,\n'
        '    "strategy": "hlt"\n'
        "  }\n"
        "}\n"
    ),
    (
        ("tensor", "--presentation", "< a | a^5 >"),
        "command: tensor --presentation < a | a^5 >\n"
        "input: sha256:85094de8cd1d2d99fb98b8e8b4ba4198d3e87444a3ecd119f5f2d4b30fd0683e\n"
        "group: presentation\n"
        "construction: tensor square\n"
        "strategy: hlt\n"
        "order: 5\n"
        "abelianization: Z_5\n"
        "j2_order: 5\n"
        "derived_order: 1\n"
        "bookkeeping: 5 = 5 * 1\n"
        "kappa_digest: 98b158a81df9f15928c8cb74a515b13f7ddca0713c93e299292afe89dd9b66d4\n"
    ),
    (
        ("tensor", "--group", "Q8", "--strategy", "felsch"),
        "command: tensor --group Q8 --strategy felsch\n"
        "input: sha256:6fbba5df964b7049f1f52252c60c8e1e810979f3167a43ff874917f0f0af3cf6\n"
        "group: Q8\n"
        "construction: tensor square\n"
        "strategy: felsch\n"
        "order: 64\n"
        "abelianization: Z_2 x Z_2 x Z_4 x Z_4\n"
        "j2_order: 32\n"
        "derived_order: 2\n"
        "bookkeeping: 64 = 32 * 2\n"
        "kappa_digest: a717d38b35e9fb6d49696e80f5df87271c926437535423c7d40c291ca9a863de\n"
    ),
]


@pytest.mark.parametrize(
    "argv,expected", GOLDEN_REPORTS,
    ids=["D4-both", "S3-exterior-structured", "presentation-Z5", "Q8-felsch"],
)
def test_tensor_reports_are_pinned(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


def test_tensor_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "tensor")
    assert code == 1 and "exactly one" in err
    code, _, err = run(
        capsys, "tensor", "--group", "Z2", "--presentation", "< a | a >"
    )
    assert code == 1


def test_tensor_unknown_group(capsys):
    code, _, err = run(capsys, "tensor", "--group", "E8")
    assert code == 1
    assert "unknown catalog group" in err


def test_tensor_budget_exceeded_exit_two(capsys):
    code, _, err = run(capsys, "tensor", "--group", "D4", "--budget", "2")
    assert code == 2
    assert "budget" in err.lower()


def test_tensor_multiplication_table_over_memory_cap_exits_two(capsys, monkeypatch):
    # the input group has 1,024 elements; its table does not fit 1 MB
    monkeypatch.setattr(cli, "realize", functools.partial(fp.realize, max_bytes=1_000_000))
    code, _, err = run(capsys, "tensor", "--presentation", "< a, b | a^32, b^32, a b a^-1 b^-1 >")
    assert code == 2
    assert "multiplication table" in err


def test_presentation_over_parse_cap_exits_two(capsys):
    code, _, err = run(capsys, "tensor", "--presentation", "< a | a^1000000000 >")
    assert code == 2
    assert "parse of 1000000000 letters" in err


def test_gamma_over_factor_cap_exits_two(capsys):
    code, _, err = run(capsys, "gamma", "Z^1000000000 x Z_2")
    assert code == 2
    assert "1000000001 cyclic factors" in err


# gamma reports pinned from the build that formatted one string per factor
GOLDEN_GAMMA = [
    (
        ("gamma", "Z^2 x Z_2 x Z_2 x Z_6"),
        "command: gamma Z^2 x Z_2 x Z_2 x Z_6\n"
        "input: sha256:f34b79d2fdee6d2844ad32dee62ff265905b6c3abd4f9e7aa70e5a68fae9b961\n"
        "group: Z^2 x Z_2 x Z_2 x Z_6\n"
        "gamma: Z^3 x Z_2 x Z_2 x Z_2 x Z_2 x Z_2 x Z_2 x Z_2 x Z_2 x Z_2 x Z_12 x Z_12 x Z_12\n"
    ),
    (
        ("gamma", "Z_3 x Z_3 x Z_9", "--format", "structured"),
        "{\n"
        '  "command": "gamma Z_3 x Z_3 x Z_9 --format structured",\n'
        '  "input_digest": "527d6ae9d8ccdd2b62acfecf68b72884de8e34b30b1bf3a6c1da892a9ceca5c0",\n'
        '  "results": {\n'
        '    "gamma": "Z_3 x Z_3 x Z_3 x Z_3 x Z_3 x Z_9",\n'
        '    "group": "Z_3 x Z_3 x Z_9"\n'
        "  }\n"
        "}\n"
    ),
    (
        ("gamma", "Z^2"),
        "command: gamma Z^2\n"
        "input: sha256:1a49e6bec04c7b56a59a9bded1771cc7c929dc7efa09fb44c96ac6263c36a615\n"
        "group: Z^2\n"
        "gamma: Z^3\n"
    ),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_GAMMA, ids=["runs", "structured", "free"])
def test_gamma_reports_are_pinned(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


def test_gamma_report_peak_stays_within_the_factor_estimate():
    # 200,001 factors (Z_2 200,000 times, then Z_4): the whole command,
    # printing included, stays within the estimate its cap is checked
    # against, plus a fixed 1 MiB.
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            assert main(["gamma", "Z^200000 x Z_2"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 200_001 * abelian._FACTOR_BYTES + (1 << 20)


def test_gamma_report_peak_stays_within_the_digit_estimate():
    # 5,001 factors of 200 digits: the report holds about 3 B per digit
    # per factor, far past the flat 40 B per factor, and within the
    # estimate that also charges the digits of the largest factor.
    d = 10**199 + 1
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            assert main(["gamma", f"Z^5000 x Z_{d}"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak > 5_001 * abelian._FACTOR_BYTES + (1 << 20)
    assert peak < 5_001 * (abelian._FACTOR_BYTES + abelian._DIGIT_BYTES * 200) + (1 << 20)


def test_peiffer_s3(capsys):
    code, out, _ = run(capsys, "peiffer", "--group", "S3")
    assert code == 0
    assert "order: 12" in out
    assert "abelianization: Z_2 x Z_2" in out
    assert "abelian: no" in out


def test_peiffer_a5(capsys):
    code, out, _ = run(capsys, "peiffer", "--group", "A5")
    assert code == 0
    assert "order: 60" in out
    assert "abelianization: 1" in out
    assert "abelian: no" in out


def test_peiffer_trivial_action_is_direct_product(capsys):
    code, out, _ = run(
        capsys, "peiffer", "--group", "Z3", "--trivial-with", "Z4"
    )
    assert code == 0
    assert "order: 12" in out
    assert "abelian: yes" in out


def test_malcev_canned_k2(capsys):
    code, out, _ = run(
        capsys, "malcev", "--canned", "k2-rationals", "--degree", "5"
    )
    assert code == 0
    assert "linear: no" in out
    assert "torsion rank is infinite" in out
    code, out, _ = run(
        capsys, "malcev", "--canned", "k2-rationals", "--char", "3",
        "--degree", "5",
    )
    assert code == 0
    assert "linear: no" in out


def test_malcev_from_file(capsys, tmp_path):
    path = tmp_path / "g2ab.txt"
    path.write_text("torsion_free_rank: 1\nprime: 2 rank: inf exponent: 1\n")
    code, out, _ = run(
        capsys, "malcev", str(path), "--char", "2", "--degree", "2"
    )
    assert code == 0
    assert "linear: yes" in out
    assert "2^(1-1) + max(1, 0) = 2 < 3" in out
    code, out, _ = run(
        capsys, "malcev", str(path), "--char", "2", "--degree", "1"
    )
    assert code == 0
    assert "linear: no" in out


def test_malcev_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "malcev", "--degree", "2")
    assert code == 1 and "exactly one" in err
    code, _, _ = run(
        capsys, "malcev", str(tmp_path / "missing.txt"), "--degree", "2"
    )
    assert code == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    code, _, err = run(capsys, "malcev", str(bad), "--degree", "2")
    assert code == 1


# Every trace branch of the malcev report, pinned from a known-good
# build.  "FILE" stands for a descriptor file holding MALCEV_DESCRIPTOR,
# and "{path}" for its path in the report.
MALCEV_DESCRIPTOR = (
    "torsion_free_rank: 1\n"
    "prime: 2 rank: 3 exponent: 2\n"
    "prime: 3 rank: 1 exponent: 1\n"
)
MALCEV_REPORTS = [
    (
        ("malcev", "--canned", "k2-rationals", "--degree", "5"),
        "command: malcev --canned k2-rationals --degree 5\n"
        "input: sha256:891ebe77d4c39626726f92962109cce26658f9a7b424d8cc4545fd5f690fbfa2\n"
        "characteristic: 0\n"
        "degree: 5\n"
        "linear: no\n"
        "trace: torsion rank is infinite; no degree suffices\n"
    ),
    (
        ("malcev", "FILE", "--degree", "3"),
        "command: malcev {path} --degree 3\n"
        "input: sha256:2e38ef62f771574e7d9060090cc0c1baf05b523f6c230a27a06e2ae37c673236\n"
        "characteristic: 0\n"
        "degree: 3\n"
        "linear: yes\n"
        "trace: torsion rank 3 <= degree 3\n"
    ),
    (
        ("malcev", "FILE", "--degree", "2"),
        "command: malcev {path} --degree 2\n"
        "input: sha256:2e38ef62f771574e7d9060090cc0c1baf05b523f6c230a27a06e2ae37c673236\n"
        "characteristic: 0\n"
        "degree: 2\n"
        "linear: no\n"
        "trace: torsion rank 3 > degree 2\n"
    ),
    (
        ("malcev", "--canned", "button-two", "--char", "3", "--degree", "4"),
        "command: malcev --canned button-two --char 3 --degree 4\n"
        "input: sha256:b4ce3cf1baf2c078a9e470e1186381d45f2c5d7750410d35c212ecee33de929f\n"
        "characteristic: 3\n"
        "degree: 4\n"
        "linear: no\n"
        "trace: prime-to-3 torsion rank is infinite; no degree suffices\n"
    ),
    (
        ("malcev", "--canned", "k2-rationals", "--char", "2", "--degree", "5"),
        "command: malcev --canned k2-rationals --char 2 --degree 5\n"
        "input: sha256:891ebe77d4c39626726f92962109cce26658f9a7b424d8cc4545fd5f690fbfa2\n"
        "characteristic: 2\n"
        "degree: 5\n"
        "linear: no\n"
        "trace: 2-part exponent is unbounded; no degree suffices\n"
    ),
    (
        ("malcev", "--canned", "button-two", "--char", "2", "--degree", "2"),
        "command: malcev --canned button-two --char 2 --degree 2\n"
        "input: sha256:b4ce3cf1baf2c078a9e470e1186381d45f2c5d7750410d35c212ecee33de929f\n"
        "characteristic: 2\n"
        "degree: 2\n"
        "linear: yes\n"
        "trace: 2^(1-1) + max(1, 0) = 2 < 3 = degree + 1\n"
    ),
    (
        ("malcev", "--canned", "button-two", "--char", "2", "--degree", "1"),
        "command: malcev --canned button-two --char 2 --degree 1\n"
        "input: sha256:b4ce3cf1baf2c078a9e470e1186381d45f2c5d7750410d35c212ecee33de929f\n"
        "characteristic: 2\n"
        "degree: 1\n"
        "linear: no\n"
        "trace: 2^(1-1) + max(1, 0) = 2 >= 2 = degree + 1\n"
    ),
    (
        ("malcev", "FILE", "--char", "5", "--degree", "3"),
        "command: malcev {path} --char 5 --degree 3\n"
        "input: sha256:2e38ef62f771574e7d9060090cc0c1baf05b523f6c230a27a06e2ae37c673236\n"
        "characteristic: 5\n"
        "degree: 3\n"
        "linear: yes\n"
        "trace: 5^(0-1) + max(1, 3) = 16/5 < 4 = degree + 1\n"
    ),
    (
        ("malcev", "FILE", "--char", "5", "--degree", "2"),
        "command: malcev {path} --char 5 --degree 2\n"
        "input: sha256:2e38ef62f771574e7d9060090cc0c1baf05b523f6c230a27a06e2ae37c673236\n"
        "characteristic: 5\n"
        "degree: 2\n"
        "linear: no\n"
        "trace: 5^(0-1) + max(1, 3) = 16/5 >= 3 = degree + 1\n"
    ),
    (
        ("malcev", "FILE", "--char", "2", "--degree", "2", "--format", "structured"),
        "{\n"
        '  "command": "malcev {path} --char 2 --degree 2 --format structured",\n'
        '  "input_digest": "2e38ef62f771574e7d9060090cc0c1baf05b523f6c230a27a06e2ae37c673236",\n'
        '  "results": {\n'
        '    "characteristic": 2,\n'
        '    "degree": 2,\n'
        '    "linear": false,\n'
        '    "trace": "2^(2-1) + max(1, 1) = 3 >= 3 = degree + 1"\n'
        "  }\n"
        "}\n"
    ),
]


@pytest.mark.parametrize(
    "argv,expected", MALCEV_REPORTS,
    ids=[
        "char0-infinite", "char0-le", "char0-gt", "charp-infinite-rank",
        "charp-unbounded", "charp-lt", "charp-ge", "charp-fraction-lt",
        "charp-fraction-ge", "charp-structured",
    ],
)
def test_malcev_reports_are_pinned(capsys, tmp_path, argv, expected):
    path = tmp_path / "descriptor.txt"
    path.write_text(MALCEV_DESCRIPTOR)
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected.replace("{path}", str(path))


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--degree", "0"), "degree must be a positive integer"),
        (("--char", "4", "--degree", "2"), "4 is not a prime"),
        (("--char", "4", "--degree", "0"), "degree must be a positive integer"),
        (("--char", "-3", "--degree", "2"), "-3 is not a prime"),
        (("--char", "1", "--degree", "2"), "1 is not a prime"),
    ],
)
def test_malcev_invalid_degree_and_prime(capsys, argv, message):
    code, out, err = run(capsys, "malcev", "--canned", "bryukhanov", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_rep_sanov_export(capsys):
    code, out, _ = run(capsys, "rep", "sanov")
    assert code == 0
    assert "inverses_verified: 2" in out
    assert "  [1, 2]" in out
    assert "variables: none" in out


def test_rep_free_sampling(capsys):
    code, out, _ = run(
        capsys, "rep", "free", "--n", "3", "--samples", "50", "--seed", "1"
    )
    assert code == 0
    assert "sampled_words: 50" in out
    assert "non_identity: 50" in out


def test_rep_sampling_rejected_for_non_free_kinds(capsys):
    code, _, err = run(
        capsys, "rep", "zmfk", "--m", "1", "--k", "1", "--samples", "5"
    )
    assert code == 1
    assert "free kinds" in err


def test_rep_button(capsys):
    code, out, _ = run(
        capsys, "rep", "button", "--variant", "2", "--count", "3"
    )
    assert code == 0
    assert "identities_verified: 13" in out
    assert "conjugation_power: 3" in out
    assert "B*A_3*B^-1 = A_3^3" in out


def test_rep_tensor_free_variables(capsys):
    code, out, _ = run(capsys, "rep", "tensor-free", "--n", "3")
    assert code == 0
    assert "variable: t6 laurent" in out
    assert "truncated" in out


def test_rep_nilpotent_dimension(capsys):
    code, out, _ = run(capsys, "rep", "nilpotent", "--n", "2", "--c", "1")
    assert code == 0
    assert "dimension: 3" in out


def test_rep_tensor_nilpotent_metadata(capsys):
    code, out, _ = run(capsys, "rep", "tensor-nilpotent", "--n", "2", "--c", "1")
    assert code == 0
    assert "scalar_rank: 3" in out
    assert "derived_free_rank: 1" in out


def test_rep_missing_parameters(capsys):
    code, _, err = run(capsys, "rep", "free")
    assert code == 1
    assert "--n" in err


# Representation exports pinned from a known-good build.
REP_REPORTS = [
    (
        ("rep", "tensor-nilpotent", "--n", "2", "--c", "1"),
        "command: rep tensor-nilpotent --n 2 --c 1\n"
        "input: sha256:b5832ca17d582102c863705d71a100c23f2532319089d2f0c979a1e5f7c7f4c7\n"
        "construction: tensor_square_rep_nilpotent\n"
        "dimension: 3\n"
        "generators:\n"
        "  s1\n"
        "  s2\n"
        "  s3\n"
        "  x1\n"
        "  x2\n"
        "inverses_verified: 5\n"
        "target: Z^3 x derived(N_{2,2}) inside Z^3 x N_{2,2}\n"
        "scalar_rank: 3\n"
        "derived_free_rank: 1\n"
        "export:\n"
        "  dimension: 3\n"
        "  variable: tau1 laurent\n"
        "  variable: tau2 laurent\n"
        "  variable: tau3 laurent\n"
        "  variable: t1_1 polynomial\n"
        "  variable: t1_2 polynomial\n"
        "  variable: t2_1 polynomial\n"
        "  variable: t2_2 polynomial\n"
        "  generator: s1\n"
        "    [tau1, 0, 0]\n"
        "    [0, tau1, 0]\n"
        "    [0, 0, tau1]\n"
        "  generator: s2\n"
        "    [tau2, 0, 0]\n"
        "    [0, tau2, 0]\n"
        "    [0, 0, tau2]\n"
        "  generator: s3\n"
        "    [tau3, 0, 0]\n"
        "    [0, tau3, 0]\n"
        "    [0, 0, tau3]\n"
        "  generator: x1\n"
        "    [1, t1_1, 0]\n"
        "    [0, 1, t1_2]\n"
        "    [0, 0, 1]\n"
        "  generator: x2\n"
        "    [1, t2_1, 0]\n"
        "    [0, 1, t2_2]\n"
        "    [0, 0, 1]\n"
    ),
    (
        ("rep", "tensor-nilpotent", "--n", "3", "--c", "2"),
        "command: rep tensor-nilpotent --n 3 --c 2\n"
        "input: sha256:ecd038c0397bc7acde8361786bc2223216952fc4d6952316cb63c0fccf5aed48\n"
        "construction: tensor_square_rep_nilpotent\n"
        "dimension: 4\n"
        "generators:\n"
        "  s1\n"
        "  s2\n"
        "  s3\n"
        "  s4\n"
        "  s5\n"
        "  s6\n"
        "  x1\n"
        "  x2\n"
        "  x3\n"
        "inverses_verified: 9\n"
        "target: Z^6 x derived(N_{3,3}) inside Z^6 x N_{3,3}\n"
        "scalar_rank: 6\n"
        "export:\n"
        "  dimension: 4\n"
        "  variable: tau1 laurent\n"
        "  variable: tau2 laurent\n"
        "  variable: tau3 laurent\n"
        "  variable: tau4 laurent\n"
        "  variable: tau5 laurent\n"
        "  variable: tau6 laurent\n"
        "  variable: t1_1 polynomial\n"
        "  variable: t1_2 polynomial\n"
        "  variable: t1_3 polynomial\n"
        "  variable: t2_1 polynomial\n"
        "  variable: t2_2 polynomial\n"
        "  variable: t2_3 polynomial\n"
        "  variable: t3_1 polynomial\n"
        "  variable: t3_2 polynomial\n"
        "  variable: t3_3 polynomial\n"
        "  generator: s1\n"
        "    [tau1, 0, 0, 0]\n"
        "    [0, tau1, 0, 0]\n"
        "    [0, 0, tau1, 0]\n"
        "    [0, 0, 0, tau1]\n"
        "  generator: s2\n"
        "    [tau2, 0, 0, 0]\n"
        "    [0, tau2, 0, 0]\n"
        "    [0, 0, tau2, 0]\n"
        "    [0, 0, 0, tau2]\n"
        "  generator: s3\n"
        "    [tau3, 0, 0, 0]\n"
        "    [0, tau3, 0, 0]\n"
        "    [0, 0, tau3, 0]\n"
        "    [0, 0, 0, tau3]\n"
        "  generator: s4\n"
        "    [tau4, 0, 0, 0]\n"
        "    [0, tau4, 0, 0]\n"
        "    [0, 0, tau4, 0]\n"
        "    [0, 0, 0, tau4]\n"
        "  generator: s5\n"
        "    [tau5, 0, 0, 0]\n"
        "    [0, tau5, 0, 0]\n"
        "    [0, 0, tau5, 0]\n"
        "    [0, 0, 0, tau5]\n"
        "  generator: s6\n"
        "    [tau6, 0, 0, 0]\n"
        "    [0, tau6, 0, 0]\n"
        "    [0, 0, tau6, 0]\n"
        "    [0, 0, 0, tau6]\n"
        "  generator: x1\n"
        "    [1, t1_1, 0, 0]\n"
        "    [0, 1, t1_2, 0]\n"
        "    [0, 0, 1, t1_3]\n"
        "    [0, 0, 0, 1]\n"
        "  generator: x2\n"
        "    [1, t2_1, 0, 0]\n"
        "    [0, 1, t2_2, 0]\n"
        "    [0, 0, 1, t2_3]\n"
        "    [0, 0, 0, 1]\n"
        "  generator: x3\n"
        "    [1, t3_1, 0, 0]\n"
        "    [0, 1, t3_2, 0]\n"
        "    [0, 0, 1, t3_3]\n"
        "    [0, 0, 0, 1]\n"
    ),
    (
        ("rep", "zmfk", "--m", "2", "--k", "2"),
        "command: rep zmfk --m 2 --k 2\n"
        "input: sha256:6d7397334bf09582d6ddc3a5e14f788e9236fca1c169fb2493708056024880b1\n"
        "construction: rep_z_m_times_f_k\n"
        "dimension: 2\n"
        "generators:\n"
        "  z1\n"
        "  z2\n"
        "  f1\n"
        "  f2\n"
        "inverses_verified: 4\n"
        "target: Z^2 x F_2\n"
        "export:\n"
        "  dimension: 2\n"
        "  variable: t1 laurent\n"
        "  variable: t2 laurent\n"
        "  generator: z1\n"
        "    [t1, 0]\n"
        "    [0, t1]\n"
        "  generator: z2\n"
        "    [t2, 0]\n"
        "    [0, t2]\n"
        "  generator: f1\n"
        "    [1, 0]\n"
        "    [2, 1]\n"
        "  generator: f2\n"
        "    [-3, -8]\n"
        "    [2, 5]\n"
    ),
    (
        ("rep", "zmfk", "--m", "0", "--k", "0"),
        "command: rep zmfk --m 0 --k 0\n"
        "input: sha256:84850265b57bfbd3ba8d2973284a4d681553e2c190f02680fda4aa8201e5fc3d\n"
        "construction: rep_z_m_times_f_k\n"
        "dimension: 2\n"
        "generators:\n"
        "inverses_verified: 0\n"
        "target: Z^0 x F_0\n"
        "export:\n"
        "  dimension: 2\n"
        "  variables: none\n"
    ),
    (
        ("rep", "tensor-free", "--n", "3"),
        "command: rep tensor-free --n 3\n"
        "input: sha256:1cee689df49018932a9ae38860043a89ce9b8c47e5fa208f92251a630907d06c\n"
        "construction: tensor_square_rep_free\n"
        "dimension: 2\n"
        "generators:\n"
        "  z1\n"
        "  z2\n"
        "  z3\n"
        "  z4\n"
        "  z5\n"
        "  z6\n"
        "  f1\n"
        "  f2\n"
        "inverses_verified: 8\n"
        "target: Z^6 x derived(F_3) (infinite-rank free part truncated to rank 2)\n"
        "export:\n"
        "  dimension: 2\n"
        "  variable: t1 laurent\n"
        "  variable: t2 laurent\n"
        "  variable: t3 laurent\n"
        "  variable: t4 laurent\n"
        "  variable: t5 laurent\n"
        "  variable: t6 laurent\n"
        "  generator: z1\n"
        "    [t1, 0]\n"
        "    [0, t1]\n"
        "  generator: z2\n"
        "    [t2, 0]\n"
        "    [0, t2]\n"
        "  generator: z3\n"
        "    [t3, 0]\n"
        "    [0, t3]\n"
        "  generator: z4\n"
        "    [t4, 0]\n"
        "    [0, t4]\n"
        "  generator: z5\n"
        "    [t5, 0]\n"
        "    [0, t5]\n"
        "  generator: z6\n"
        "    [t6, 0]\n"
        "    [0, t6]\n"
        "  generator: f1\n"
        "    [1, 0]\n"
        "    [2, 1]\n"
        "  generator: f2\n"
        "    [-3, -8]\n"
        "    [2, 5]\n"
    ),
]


@pytest.mark.parametrize(
    "argv,expected", REP_REPORTS,
    ids=[
        "tensor-nilpotent-2-1", "tensor-nilpotent-3-2", "zmfk-2-2",
        "zmfk-0-0", "tensor-free-3",
    ],
)
def test_rep_reports_are_pinned(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize(
    "argv,message",
    [
        (("tensor-nilpotent", "--n", "0", "--c", "1"),
         "rank must be a positive integer"),
        (("tensor-nilpotent", "--n", "2", "--c", "0"),
         "class parameter must be a positive integer"),
        (("zmfk", "--m", "-1", "--k", "-1"),
         "scalar count must be a non-negative integer"),
        (("zmfk", "--m", "1", "--k", "-1"),
         "free rank must be a non-negative integer"),
        *((("tensor-free", "--n", n), "rank must be a positive integer")
          for n in ("0", "-1", "-2")),
    ],
)
def test_rep_invalid_parameters(capsys, argv, message):
    code, out, err = run(capsys, "rep", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_structured_format_agrees_with_text(capsys):
    code, out, _ = run(capsys, "tensor", "--group", "Z2", "--format",
                       "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["order"] == 2
    assert doc["results"]["j2_order"] == 2
    assert doc["results"]["construction"] == "tensor square"
    code, text_out, _ = run(capsys, "tensor", "--group", "Z2")
    assert f"kappa_digest: {doc['results']['kappa_digest']}" in text_out


def test_structured_format_is_deterministic(capsys):
    _, out1, _ = run(capsys, "rep", "sanov", "--format", "structured")
    _, out2, _ = run(capsys, "rep", "sanov", "--format", "structured")
    assert out1 == out2
    json.loads(out1)


def _readme_commands():
    """Each `grouptensor` line of the README's "Command line" block, as
    (argv, lines): the report lines its `-> field: value` comment names."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    cases = []
    for line in block.splitlines():
        if line.startswith("grouptensor "):
            command, _, comment = line.partition("#")
            lines = [comment.strip()[2:].strip()] if comment.strip().startswith("->") else []
            cases.append(pytest.param(shlex.split(command)[1:], lines, id=command.strip()))
    return cases


README_COMMANDS = _readme_commands()


def test_readme_lists_its_command_examples():
    assert len(README_COMMANDS) == 18


@pytest.mark.parametrize("argv,lines", README_COMMANDS)
def test_readme_command_examples_run(capsys, tmp_path, monkeypatch, argv, lines):
    (tmp_path / "descriptor.txt").write_text("torsion_free_rank: 1\nprime: 2 rank: inf exponent: 1\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    for line in lines:
        assert line in out.splitlines()


def test_timing_flag_appends_line(capsys):
    code, out, _ = run(capsys, "gamma", "Z_2", "--timing")
    assert code == 0
    assert "timing_seconds:" in out


def test_usage_error_exits_one(capsys):
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    assert "error:" in err
