import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
import pytest

from entrokit import cli, entropy


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


GAUSSIAN = '{"family":"gaussian","mu":0,"sigma":1}'


def strict_json(text):
    """RFC 8259 JSON only: NaN and Infinity are rejected."""

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant} in output")

    return json.loads(text, parse_constant=reject)


class TestParseArgs:
    def test_inline_discrete_bits(self, tmp_path):
        # --probs takes inline JSON or a file path; --input always a path
        f = tmp_path / "coin.json"
        f.write_text("[0.5,0.5]")
        expected = (0, '{"value":1.0,"unit":"bits"}\n')
        for source in (["--probs", "[0.5,0.5]"], ["--probs", str(f)], ["--input", str(f)]):
            assert invoke(["discrete", *source, "--unit", "bits"])[:2] == expected

    def test_density_flag_accepts_a_path(self, tmp_path):
        f = tmp_path / "gaussian.json"
        f.write_text(GAUSSIAN)
        opts = ["--h-start", "0.5", "--halvings", "6", "--format", "csv"]
        code, inline, _ = invoke(["converge", "--density", GAUSSIAN, *opts])
        assert code == 0
        lines = inline.splitlines()
        assert len(lines) == 7 and lines[1].startswith("0.5,")
        assert invoke(["converge", "--density", str(f), *opts])[:2] == (0, inline)
        assert invoke(["converge", "--input", str(f), *opts])[:2] == (0, inline)
        assert invoke(["converge", "--density", GAUSSIAN, "--input", str(f), *opts])[0] == 2

    def test_fit_phi_data_is_always_inline_csv(self, tmp_path):
        rows = "0.1,2.0\n0.2,1.3\n0.5,0.4\n0.9,-0.2"
        f = tmp_path / "phi.csv"
        f.write_text(rows)
        code, out, _ = invoke(["fit-phi", "--data", rows])
        assert code == 0
        assert invoke(["fit-phi", "--input", str(f)])[:2] == (0, out)
        # a --data value naming a file is still read as CSV text, not opened
        code, out, _ = invoke(["fit-phi", "--data", str(f)])
        assert code == 65
        assert "expected 'p,phi_prime'" in json.loads(out)["error"]["message"]

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["discrete", "--probs", "[0.5,0.5]", "--bogus"])
        assert exc.value.code == 2

    def test_input_source_is_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["discrete", "--probs", "[0.5,0.5]", "--input", "x.json"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["discrete"])
        assert exc.value.code == 2


class TestRunOutputs:
    def test_fair_coin_nats_bytes(self):
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]"])
        assert code == 0
        assert out == '{"value":0.6931471805599453,"unit":"nats"}\n'

    def test_fair_coin_bits_bytes(self):
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]", "--unit", "bits"])
        assert code == 0
        assert out == '{"value":1.0,"unit":"bits"}\n'

    def test_custom_k(self):
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]", "--k", "2.0"])
        assert code == 0
        body = json.loads(out)
        assert body["value"] == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
        assert body["unit"] == "custom"

    def test_renormalize_flag(self):
        code, out, _ = invoke(["discrete", "--probs", "[2,2]", "--renormalize"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_renormalize_overflowing_weights(self):
        # the weights sum past the largest double
        code, out, _ = invoke(["discrete", "--probs", "[1e308,1e308]", "--renormalize"])
        assert code == 0
        assert strict_json(out)["value"] == math.log(2.0)

    def test_renormalize_reads_the_probs_object(self):
        code, out, _ = invoke(["discrete", "--probs", '{"probs":[1,3]}', "--renormalize"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5623351446188083, abs=1e-15)
        code, out, _ = invoke(["discrete", "--probs", '{"p":[1,3]}', "--renormalize"])
        assert code == 65
        assert json.loads(out)["error"]["kind"] == "ValidationError"

    def test_total_from_file(self, tmp_path):
        f = tmp_path / "binned.json"
        f.write_text('{"values":[0,1],"probs":[0.5,0.5],"widths":[2,2]}')
        code, out, _ = invoke(["total", "--input", str(f)])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.log(4.0), abs=1e-12)

    def test_differential(self):
        code, out, _ = invoke(["differential", "--density", GAUSSIAN])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e), abs=1e-8
        )

    def test_modified(self):
        code, out, _ = invoke(
            ["modified", "--density", '{"family":"uniform","a":0,"b":1}', "--h", "0.1"]
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.log(10.0), abs=1e-8)

    def test_quantize_roundtrips_into_total(self):
        code, out, _ = invoke(
            ["quantize", "--density", '{"family":"uniform","a":0,"b":1}', "--h", "0.25"]
        )
        assert code == 0
        binned = json.loads(out)["binned"]
        code2, out2, _ = invoke(
            ["total", "--data", json.dumps(binned, separators=(",", ":"))]
        )
        assert code2 == 0
        # masses equal widths here, so every log term vanishes
        assert json.loads(out2)["value"] == pytest.approx(0.0, abs=1e-10)
        # emitted JSON is accepted back unchanged
        code3, out3, _ = invoke(
            ["quantize", "--density", '{"family":"uniform","a":0,"b":1}', "--h", "0.25"]
        )
        assert json.loads(out3)["binned"] == binned

    def test_converge_csv_shape(self):
        code, out, _ = invoke(
            ["converge", "--density", GAUSSIAN, "--h-start", "0.5", "--halvings", "3",
             "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "h,total_entropy,differential_entropy,abs_error"
        assert len(lines) == 4
        assert "\r" not in out
        errs = [float(line.split(",")[3]) for line in lines[1:]]
        assert errs[0] > errs[1] > errs[2]

    def test_quantize_point_mass_is_one_bin(self):
        # sigma far below h: the whole mass falls in the central bin
        code, out, _ = invoke(
            ["quantize", "--density", '{"family":"gaussian","mu":0,"sigma":1e-300}',
             "--h", "1"]
        )
        assert code == 0
        assert json.loads(out)["binned"]["probs"] == [1.0]

    def test_converge_json(self):
        code, out, _ = invoke(
            ["converge", "--density", GAUSSIAN, "--h-start", "0.5", "--halvings", "2"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["h"] for r in rows] == [0.5, 0.25]

    def test_fit_phi_from_csv_file(self, tmp_path):
        f = tmp_path / "phi.csv"
        rows = ["p,phi_prime"] + [
            f"{p},{-2.0 * math.log(p) + 3.0}" for p in (0.1, 0.2, 0.4, 0.8)
        ]
        f.write_text("\n".join(rows))
        code, out, _ = invoke(["fit-phi", "--input", str(f)])
        assert code == 0
        body = json.loads(out)
        assert body["A"] == pytest.approx(-2.0, abs=1e-10)
        assert body["B"] == pytest.approx(3.0, abs=1e-10)
        assert body["admissible"] is True

    def test_statmech_ideal_gas(self):
        code, out, _ = invoke(
            ["statmech", "ideal-gas", "--E", "150", "--dE", "1.5", "--V", "1000",
             "--N", "100", "--indistinguishable"]
        )
        assert code == 0
        body = json.loads(out)
        assert set(body) == {"lnOmega", "S", "S_sackur_tetrode", "rel_diff"}
        assert body["rel_diff"] == pytest.approx(0.007155662091160249, rel=1e-9)

    @pytest.mark.parametrize(
        "gas, s_sackur_tetrode",
        [
            (["--E", "1e300", "--dE", "1", "--V", "1", "--N", "1", "--planck-h", "1e-10"],
             1109.8894625745937),
            (["--E", "1e-300", "--dE", "1e-300", "--V", "1e-300", "--N", "1",
              "--planck-h", "1e10"], -1791.3677545979039),
        ],
    )
    @pytest.mark.filterwarnings("ignore:shell thickness")
    def test_statmech_ideal_gas_at_float_extremes(self, gas, s_sackur_tetrode):
        # the Sackur-Tetrode bracket over- and underflows a float here
        code, out, _ = invoke(["statmech", "ideal-gas", *gas, "--indistinguishable"])
        assert code == 0
        body = strict_json(out)
        assert body["S_sackur_tetrode"] == pytest.approx(s_sackur_tetrode, rel=1e-14)

    def test_statmech_compare_with_ln_omega(self):
        code, out, _ = invoke(
            ["statmech", "compare", "--E", "1", "--dE", "0.001", "--V", "1", "--N", "1",
             "--planck-h", "2", "--ln-omega", "8"]
        )
        assert code == 0
        body = json.loads(out)
        assert body["gap"] == pytest.approx(8 - 3 * math.log(2) - 1, abs=1e-10)

    def test_statmech_compare_overflow_is_null(self):
        code, out, _ = invoke(
            ["statmech", "compare", "--E", "150", "--dE", "1.5", "--V", "1000", "--N", "1000",
             "--planck-h", "0.1"]
        )
        assert code == 0
        body = strict_json(out)
        assert body["S_prefactor"] is None and body["gap"] is None
        assert body["S_prefactor_sign"] == 1
        assert body["S_prefactor_log_magnitude"] > 700.0
        assert math.isfinite(body["S_cell_in_log"])

    def test_axioms_max_n_1_without_majorization_pairs(self):
        code, out, _ = invoke(["axioms", "--max-n", "1", "--majorization-pairs", "0",
                               "--n-dists", "20", "--additivity-pairs", "5"])
        assert code == 0
        assert strict_json(out)["passed"] is True

    def test_axioms_seeded(self):
        argv = ["axioms", "--seed", "3", "--n-dists", "200",
                "--additivity-pairs", "40", "--majorization-pairs", "40"]
        code, out, _ = invoke(argv)
        assert code == 0
        assert json.loads(out)["passed"] is True


COMPARE = ["statmech", "compare", "--E", "1", "--dE", "0.01", "--V", "1", "--N", "1"]
IDEAL_GAS = ["statmech", "ideal-gas", "--E", "1", "--dE", "0.01", "--V", "1"]

#: a probability object with a Latin-1 byte in it
NOT_UTF8 = str(Path(__file__).parent / "data" / "not_utf8.json")


def density(params):
    return ["differential", "--density", "{" + params + "}"]


#: bad data: non-finite or non-numeric parameters, results that overflow,
#: grids too fine to allocate, an input file that is not UTF-8; each must
#: exit 65 with strict-JSON stdout
BAD_VALUES = {
    "sigma-nan": density('"family":"gaussian","mu":0,"sigma":NaN'),
    "sigma-inf": density('"family":"gaussian","mu":0,"sigma":Infinity'),
    "mu-nan": density('"family":"gaussian","mu":NaN,"sigma":1'),
    "mu-minus-inf": density('"family":"gaussian","mu":-Infinity,"sigma":1'),
    "mu-1e300": density('"family":"gaussian","mu":1e300,"sigma":1'),
    "param-string": density('"family":"gaussian","mu":"0","sigma":"one"'),
    "a-nan": density('"family":"uniform","a":NaN,"b":1'),
    "a-minus-inf": density('"family":"uniform","a":-Infinity,"b":1'),
    "rate-nan": density('"family":"exponential","rate":NaN'),
    "rate-inf": density('"family":"exponential","rate":Infinity'),
    "k-1e308": ["discrete", "--probs", json.dumps([0.125] * 8), "--k", "1e308"],
    "quantize-h-1e-300": ["quantize", "--density", GAUSSIAN, "--h", "1e-300"],
    "converge-40-halvings": [
        "converge", "--density", GAUSSIAN, "--h-start", "0.5", "--halvings", "40"
    ],
    "axioms-n-dists-1": ["axioms", "--n-dists", "1"],
    "axioms-n-dists-minus-4": ["axioms", "--n-dists", "-4"],
    "axioms-max-n-0": ["axioms", "--max-n", "0"],
    "axioms-max-n-1-with-majorization-pairs": ["axioms", "--max-n", "1"],
    "axioms-additivity-pairs-minus-3": ["axioms", "--additivity-pairs", "-3"],
    "axioms-majorization-pairs-minus-1": ["axioms", "--majorization-pairs", "-1"],
    "axioms-k-1e308": ["axioms", "--n-dists", "100", "--k", "1e308"],
    "compare-ln-omega-nan": [*COMPARE, "--ln-omega", "nan"],
    "compare-ln-omega-inf": [*COMPARE, "--ln-omega", "inf"],
    "compare-ln-omega-minus-inf": [*COMPARE, "--ln-omega=-inf"],
    "input-not-utf8": ["discrete", "--input", NOT_UTF8],
    # the wire takes only JSON numbers
    "probs-bools": ["discrete", "--probs", "[true,false]"],
    "probs-strings": ["discrete", "--probs", '["0.5","0.5"]'],
    "probs-strings-renormalize": ["discrete", "--probs", '["0.5","0.5"]', "--renormalize"],
    "probs-400-digit-integer": ["discrete", "--probs", "[1" + "0" * 400 + ",0]"],
    "widths-bool": ["total", "--data", '{"values":[0,1],"probs":[0.5,0.5],"widths":[true,1]}'],
    "params-string-and-bool": density('"family":"gaussian","mu":"0","sigma":true'),
    # counts out of range
    "axioms-n-dists-3": ["axioms", "--n-dists", "3"],
    "ideal-gas-N-1e400": [*IDEAL_GAS, "--N", "1" + "0" * 400],
    "compare-N-1e400": [*COMPARE[:-2], "--N", "1" + "0" * 400],
}


class TestExitCodes:
    def test_domain_error_is_65_with_envelope(self):
        code, out, err = invoke(["discrete", "--probs", "[0.6,0.5]"])
        assert code == 65
        body = json.loads(out)
        assert body["error"]["kind"] == "NotNormalized"
        assert "1.1" in body["error"]["message"]
        assert err  # diagnostics on stderr

    def test_missing_file_is_66(self):
        code, out, _ = invoke(["discrete", "--input", "/no/such/file.json"])
        assert code == 66
        assert json.loads(out)["error"]["kind"] == "FileNotFound"

    @pytest.mark.parametrize("k", ["0", "-1", "nan", "inf"])
    def test_bad_k_is_65(self, k):
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]", "--k", k])
        assert code == 65
        assert json.loads(out)["error"]["kind"] == "ValidationError"

    @pytest.mark.parametrize("argv", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    def test_bad_values_are_65_with_strict_json(self, argv):
        code, out, _ = invoke(argv)
        body = strict_json(out)
        assert code == 65
        assert body["error"]["kind"] == "ValidationError"
        assert body["error"]["message"]

    def test_huge_max_n_is_refused_before_any_draw(self, monkeypatch):
        # the draw would ask for 475 GiB: fail loudly instead
        def no_draw(rng, n):
            raise AssertionError(f"drew a row of {n} elements")

        monkeypatch.setattr(entropy, "_simplex_row", no_draw)
        code, out, _ = invoke(["axioms", "--max-n", "100000000000", "--n-dists", "2",
                               "--additivity-pairs", "0", "--majorization-pairs", "0"])
        assert code == 65
        assert "max_n must be an integer <=" in strict_json(out)["error"]["message"]

    @pytest.mark.parametrize("m", ["1e200", "1e-200"])
    def test_ideal_gas_where_2_pi_m_e_leaves_the_float_range(self, m):
        e, de = m, str(float(m) / 1000)
        code, out, _ = invoke([*IDEAL_GAS[:2], "--E", e, "--dE", de, "--V", "1", "--N", "1",
                               "--mass", m])
        assert code == 0
        with mpmath.workdps(40):
            E, dE, M = (mpmath.mpf(x) for x in (e, de, m))
            ln_omega = (1.5 * mpmath.log(2 * mpmath.pi * M * E) - mpmath.loggamma(2.5)
                        + mpmath.log(mpmath.expm1(1.5 * mpmath.log1p(dE / E))))
            assert abs(strict_json(out)["lnOmega"] - ln_omega) <= 1e-15 * abs(ln_omega)

    def test_bad_width_is_the_same_kind_everywhere(self):
        for cmd in ("modified", "quantize"):
            code, out, _ = invoke([cmd, "--density", GAUSSIAN, "--h", "0"])
            assert code == 65
            assert strict_json(out)["error"] == {
                "kind": "NonPositiveWidth",
                "message": "h must be a positive finite real, got 0.0",
            }

    def test_usage_error_is_2(self):
        code, _, _ = invoke(["discrete", "--probs", "[0.5,0.5]", "--frobnicate"])
        assert code == 2

    def test_internal_error_is_70(self, monkeypatch):
        def boom(spec):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(cli._HANDLERS, "discrete", boom)
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]"])
        assert code == 70
        assert json.loads(out)["error"]["kind"] == "InternalError"

    def test_non_finite_result_is_an_internal_error_not_bare_nan(self, monkeypatch):
        monkeypatch.setitem(cli._HANDLERS, "discrete", lambda ns: {"value": math.nan})
        code, out, _ = invoke(["discrete", "--probs", "[0.5,0.5]"])
        assert code == 70
        assert strict_json(out)["error"]["kind"] == "InternalError"

    def test_success_is_0(self):
        code, _, _ = invoke(["discrete", "--probs", "[1.0]"])
        assert code == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["discrete", "--probs", "[0.3,0.7]"],
            ["total", "--data", '{"values":[0,1],"probs":[0.5,0.5],"widths":[1,2]}'],
            ["differential", "--density", GAUSSIAN],
            ["modified", "--density", GAUSSIAN, "--h", "0.5"],
            ["quantize", "--density", GAUSSIAN, "--h", "0.5"],
            ["converge", "--density", GAUSSIAN, "--h-start", "0.5", "--halvings", "2",
             "--format", "csv"],
            ["axioms", "--seed", "9", "--n-dists", "100", "--additivity-pairs", "20",
             "--majorization-pairs", "20"],
            ["statmech", "ideal-gas", "--E", "1", "--dE", "0.01", "--V", "1", "--N", "1"],
            ["statmech", "compare", "--E", "1", "--dE", "0.01", "--V", "1", "--N", "1"],
        ],
    )
    def test_byte_identical_across_runs(self, argv):
        first = invoke(argv)
        second = invoke(argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a scipy import anywhere under
    # the CLI would show up here
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = (
        "import entrokit.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
