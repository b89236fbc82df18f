import io
import json
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from stcores import abacus, alcoves, cli, orbits, partitions as parts
from conftest import peak_memory, point_of_sset, sset_from_text, within
from stcores.verify import random_s_core, random_s_point


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_refused(capsys, *argv):
    """Run argv and check that it is refused: exit 2, nothing on stdout and
    one stderr line, starting "stcores:", which is returned."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith("stcores:") and len(err.splitlines()) == 1, err
    return err


def test_core_command(capsys):
    code, out, _ = run_cli(capsys, "core", "--s", "5", "6,6,2,1")
    assert (code, out) == (0, "5,2,2,1\n")
    code, out, _ = run_cli(capsys, "core", "--s", "5", "")
    assert (code, out) == (0, "\n")
    code, out, _ = run_cli(capsys, "core", "--s", "4", "4,2,1,1")
    assert (code, out) == (0, "\n")


def test_qset_command(capsys):
    code, out, _ = run_cli(capsys, "qset", "--s", "5", "5,2,2,1")
    assert (code, out) == (0, "[-4,-2,2,5,9]\n")
    code, out, _ = run_cli(capsys, "qset", "--s", "3", "")
    assert (code, out) == (0, "[0,1,2]\n")
    code, out, _ = run_cli(capsys, "qset", "--s", "3", "3,1,1")
    assert (code, out) == (0, "[-3,1,5]\n")


def test_act_command(capsys):
    code, out, _ = run_cli(capsys, "act", "chi", "--s", "3", "--t", "4", "--word", "0", "(0,1,2)")
    assert (code, out) == (0, "(-4,1,6)\n")
    code, out, _ = run_cli(capsys, "act", "psi", "--s", "3", "--t", "4", "--word", "0", "(0,1,2)")
    assert (code, out) == (0, "(-10,1,12)\n")
    code, out, _ = run_cli(capsys, "act", "psi", "--t", "4", "(0,1,2)")
    assert (code, out) == (0, "(0,1,2)\n")
    code, _, err = run_cli(capsys, "act", "chi", "--s", "4", "--t", "4", "(0,1,2)")
    assert code == 2 and "does not match" in err


def test_scalar_commands(capsys):
    assert run_cli(capsys, "kappa", "--s", "3", "--t", "4")[:2] == (0, "3,1,1\n")
    assert run_cli(capsys, "count", "--s", "3", "--t", "4")[:2] == (0, "5\n")
    assert run_cli(capsys, "enumerate", "--s", "2", "--t", "3")[:2] == (0, "\n1\n")


def test_count_is_refused_before_it_passes_the_digits_python_prints(capsys):
    """Anderson's count of (7300, 7301)-cores would have 4,389 digits, over
    Python's default limit of 4,300 for int-to-text: a domain error, with or
    without --json, where it used to be a ValueError traceback."""
    code, out, _ = run_cli(capsys, "count", "--s", "7000", "--t", "7001")
    assert (code, len(out)) == (0, 4210)
    for extra in ((), ("--json",)):
        err = run_refused(capsys, "count", "--s", "7300", "--t", "7301", *extra)
        assert "exceeds the cap of 14284 bits" in err and "Traceback" not in err


def test_orbit_min_command(capsys):
    code, out, _ = run_cli(capsys, "orbit-min", "--s", "3", "--t", "4", "4,2,1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == ""  # the 4-core of (4,2,1,1) is empty
    assert lines[0].startswith("step 1: gen=")
    code, out, _ = run_cli(capsys, "orbit-min", "--s", "3", "--t", "4", "3,1,1")
    assert (code, out) == (0, "3,1,1\n")  # zero steps


def test_chain_command(capsys):
    code, out, _ = run_cli(capsys, "chain", "--s", "3", "--t", "4", "(0,1,2)")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "3,1,1"
    assert all(line.startswith("step ") for line in lines[:-1])
    code, out, _ = run_cli(capsys, "chain", "--s", "3", "--t", "4", "(-3,1,5)")
    assert (code, out) == (0, "3,1,1\n")


def test_json_envelopes(capsys):
    code, out, _ = run_cli(capsys, "core", "--s", "5", "--json", "6,6,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "input": {"partition": "6,6,2,1"},
        "result": "5,2,2,1",
        "meta": {"s": 5, "t": None},
    }
    code, out, _ = run_cli(capsys, "orbit-min", "--s", "3", "--t", "4", "--json", "4,2,1,1")
    payload = json.loads(out)
    assert payload["result"]["t_core"] == ""
    assert payload["meta"] == {"s": 3, "t": 4}
    for record in payload["result"]["steps"]:
        assert set(record) == {"step", "gen", "sset", "core"}
    code, out, _ = run_cli(capsys, "enumerate", "--s", "3", "--t", "4", "--json")
    assert json.loads(out)["result"] == ["", "1", "1,1", "2", "3,1,1"]


def test_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 1
    code, _, _ = run_cli(capsys, "verify", "--s-max", "1")
    assert code == 1
    code, _, _ = run_cli(capsys, "core", "--s", "5", "6,banana")
    assert code == 2
    code, _, _ = run_cli(capsys, "kappa", "--s", "4", "--t", "6")
    assert code == 2
    code, _, _ = run_cli(capsys, "core", "6,6,2,1")  # missing --s
    assert code == 1
    code, _, _ = run_cli(capsys, "diagram", "--s", "4")
    assert code == 2
    code, _, _ = run_cli(capsys, "diagram", "--s", "3", "--t", "6", "--mode", "tcores")
    assert code == 2
    # parameters outside the contract: one stderr line and nothing on stdout
    for argv, expected in [
        (["orbit-min", "--s", "3", "--t", "-2", "2"], 2),
        (["kappa", "--s", "2", "--t", "-3"], 2),
        (["enumerate", "--s", "2", "--t", "-3"], 2),
        (["count", "--s", "2", "--t", "-3"], 2),
        (["count", "--s", "0", "--t", "1"], 2),
        (["act", "psi", "--t", "0", "(0,1,2)"], 2),
        (["act", "chi", "--t", "6", "(0,1,2)"], 2),
        (["verify", "--trials", "-5"], 1),
        (["verify", "--trials", "0"], 1),
        (["chain", "--s", "4", "--t", "5", "(0,1,2)"], 2),
        (["act", "psi", "--t", "1", "0,1,2"], 2),
        (["act", "psi", "--t", "1", "(0,x,2)"], 2),
        (["diagram", "--s", "3", "--mode", "tcores", "--depth", "2"], 2),
        (["core", "--s", "0", "1"], 2),
        (["qset", "--s", "1", "1"], 2),
        # olsson draws from the coprime (s, t) with 2 <= s, t <= the maxima: none here
        (["verify", "--s-max", "2", "--t-max", "2"], 2),
        (["verify", "--suite", "olsson", "--s-max", "2", "--t-max", "2"], 2),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (expected, ""), argv
        assert err.startswith("stcores") and len(err.splitlines()) == 1, argv


def test_a_keyboard_interrupt_in_a_command_exits_130(capsys, monkeypatch):
    """A KeyboardInterrupt inside a command ends main with 130, 128 + SIGINT,
    and nothing on either stream."""

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_count", interrupted)
    assert run_cli(capsys, "count", "--s", "3", "--t", "4") == (130, "", "")


def test_diagram_without_out_prints_the_svg(capsys):
    from stcores.diagram import RenderSpec, render_svg

    code, out, err = run_cli(capsys, "diagram", "--s", "3", "--depth", "1")
    assert (code, out, err) == (0, render_svg(RenderSpec(s=3, depth=1, mode="cores")), "")


def test_diagram_out_that_cannot_be_written_is_one_stderr_line(capsys, tmp_path):
    for path in (tmp_path / "missing" / "x.svg", tmp_path):
        code, out, err = run_cli(capsys, "diagram", "--s", "3", "--depth", "3", "--out", str(path))
        assert (code, out) == (1, ""), path
        assert err.startswith(f"stcores: cannot write {path}: ") and len(err.splitlines()) == 1, err


def test_verify_command(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "olsson", "--s-max", "5", "--t-max", "6",
        "--seed", "42", "--trials", "60",
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "vandehey", "--s-max", "6", "--t-max", "7", "--json"
    )
    assert code == 0
    assert all(row["pass"] for row in json.loads(out)["result"])
    # no coprime pair with s, t >= 2 under the maxima, but vandehey does not need one
    code, out, err = run_cli(capsys, "verify", "--suite", "vandehey", "--s-max", "2", "--t-max", "2")
    assert (code, err) == (0, "")
    assert "FAIL" not in out


def test_vandehey_is_priced_on_the_walk_it_runs(capsys):
    """The pairs under (10, 13) cost 6,192,746 units of the gap walk, one per
    core and one per row: under the cap, so the suite runs."""
    code, out, err = run_cli(capsys, "verify", "--suite", "vandehey", "--s-max", "10", "--t-max", "13")
    assert (code, err) == (0, "")
    rows = out.splitlines()
    assert [row.split()[0] for row in rows[:-1]] == ["PASS"] * 4
    assert rows[-1] == "4/4 checks passed"


def _olsson_pairs(s_max, t_max):
    """Oracle for verify's olsson draws: every coprime (s, t) with
    2 <= s <= s_max and 2 <= t <= t_max, listed in the order (s, t)."""
    return [(s, t) for s in range(2, s_max + 1) for t in range(2, t_max + 1) if math.gcd(s, t) == 1]


def test_olsson_is_refused_from_the_maxima_exactly_when_it_has_no_pair():
    from stcores.errors import DomainError
    from stcores.verify import run_suites

    for s_max in range(-1, 6):
        for t_max in range(-1, 6):
            if _olsson_pairs(s_max, t_max):
                assert len(run_suites(["olsson"], s_max, t_max, 0, 1)) == 3, (s_max, t_max)
            else:
                with pytest.raises(DomainError, match="^verify --suite olsson needs a coprime"):
                    run_suites(["olsson"], s_max, t_max, 0, 1)


def test_olsson_draws_the_pairs_that_choice_draws_from_the_list():
    """The row counts give each index the pair the list holds there, and
    randrange over the count takes the stream rng.choice takes over the list."""
    from stcores.verify import _olsson_pair, _olsson_rows

    for s_max, t_max in [(2, 3), (3, 2), (6, 7), (12, 5), (5, 40), (30, 30)]:
        pairs = _olsson_pairs(s_max, t_max)
        rows = _olsson_rows(s_max, t_max)
        assert sum(rows) == len(pairs)
        assert [_olsson_pair(rows, k, t_max) for k in range(len(pairs))] == pairs
        for seed in range(4):
            listed, counted = random.Random(seed), random.Random(seed)
            for _ in range(50):
                assert listed.choice(pairs) == _olsson_pair(rows, counted.randrange(len(pairs)), t_max)
                assert listed.random() == counted.random()


def test_verify_names_first_chain_failure(capsys, monkeypatch):
    from stcores.alcoves import rhomboid_points

    real = orbits.containment_chain
    bad = [(3, 4, rhomboid_points(3, 4)[1]), (4, 5, rhomboid_points(4, 5)[2])]

    def broken(p, s, t):
        chain = real(p, s, t)
        if (s, t, p) in bad:  # drop the last step: the walk stops short of kappa
            return orbits.ContainmentChain(chain.points[:-1], chain.cores[:-1], chain.gens[:-1])
        return chain

    monkeypatch.setattr(orbits, "containment_chain", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "vandehey")
    assert code != 0
    (row,) = [line for line in out.splitlines() if "vandehey.chains" in line]
    s, t, p = bad[0]
    assert row.startswith("FAIL")
    assert row.endswith(f": 2 failures; first (s, t, point) = ({s}, {t}, {p})")


def _verify_rows(capsys, *argv):
    code, out, _ = run_cli(capsys, "verify", *argv)
    return code, {line.split()[1]: line.split()[0] for line in out.splitlines()[:-1]}


def test_core_oracle_catches_one_wrong_bead_slide(capsys, monkeypatch):
    real = abacus.core
    wrong = (parts.Partition((5, 3, 1)), 5)  # its 5-core is 2,1,1

    def broken(p, s):
        return parts.Partition() if (p, s) == wrong else real(p, s)

    monkeypatch.setattr(abacus, "core", broken)
    code, rows = _verify_rows(capsys, "--suite", "core-oracle")
    assert code == 3
    assert rows == {
        "core-oracle.bead-slide-vs-brute": "FAIL",
        "core-oracle.s-core-tests-agree": "PASS",
        "core-oracle.beta-round-trip": "PASS",
    }


def test_core_oracle_catches_one_lying_s_core_test(capsys, monkeypatch):
    real = abacus.is_s_core
    liar = (parts.Partition((4, 2, 1, 1)), 3)  # a 3-core

    def broken(p, s):
        return not real(p, s) if (p, s) == liar else real(p, s)

    monkeypatch.setattr(abacus, "is_s_core", broken)
    code, rows = _verify_rows(capsys, "--suite", "core-oracle")
    assert code == 3
    assert rows["core-oracle.s-core-tests-agree"] == "FAIL"
    assert rows["core-oracle.bead-slide-vs-brute"] == "PASS"


def test_actions_catch_a_generator_that_is_not_an_involution(capsys, monkeypatch):
    """The chi_t move, which the relation rows run and chi_gen wraps, made wrong."""
    from stcores import affine_actions

    real = affine_actions._chi_move

    def broken(i, t, coords, s):
        image = real(i, t, coords, s)
        # at s = 4, generator 1 also applies generator 2: twice it is no longer the identity
        return real(2, t, image, s) if (i, s) == (1, 4) else image

    monkeypatch.setattr(affine_actions, "_chi_move", broken)
    code, rows = _verify_rows(capsys, "--suite", "actions")
    assert code == 3
    assert rows["actions.relations-chi"] == "FAIL"
    assert rows["actions.relations-psi"] == "PASS"
    # chi_gen wraps the move, so the rows on the public generator see it too
    failed = [name for name, row in rows.items() if row == "FAIL"]
    assert failed == ["actions.relations-chi", "actions.level1-agreement", "actions.adjacency"]


def _beta_round_trip_loses_a_box(monkeypatch):
    real = abacus.partition_from_beta_set
    wrong = abacus.beta_set(parts.Partition((2, 1)))
    monkeypatch.setattr(
        abacus, "partition_from_beta_set", lambda b: parts.Partition((2,)) if b == wrong else real(b)
    )
    return lambda: re.escape("(p) = ((2,1))")


def _psi_wrong_at_4_3(monkeypatch, wrong):
    """The psi_t move, which the relation rows run and psi_gen wraps, with move i
    on coordinates c replaced by wrong(g, i, c) at s = 4, t = 3 alone, where g(i, c)
    is the true move, so the level-1 agreement check does not see it; the witness
    expected is the first point seen there, the suite's first draw at (4, 3).
    Every image is a product of true psi_t generators, which commute with
    chi_t, so only the relation check can see the change."""
    from stcores import affine_actions

    real = affine_actions._psi_move
    seen = []

    def broken(i, t, coords, s):
        if (s, t) != (4, 3):
            return real(i, t, coords, s)
        if not seen:
            seen.append(coords)
        return wrong(lambda j, c: real(j, t, c, s), i, coords)

    monkeypatch.setattr(affine_actions, "_psi_move", broken)
    return lambda: re.escape(f"(s, t, point) = (4, 3, {alcoves.SPoint(seen[0])})")


def _psi_is_chi_at_4_3(monkeypatch):
    """At (4, 3) psi_t is chi_t: it satisfies every relation, but chi_a and chi_b
    do not commute when a and b are neighbours."""
    from stcores import affine_actions

    real = affine_actions.psi_gen

    def broken(i, t, p):
        return affine_actions.chi_gen(i, t, p) if (p.s, t) == (4, 3) else real(i, t, p)

    monkeypatch.setattr(affine_actions, "psi_gen", broken)
    # the generators a and b and the point are drawn at random
    return lambda: re.escape("(s, t, a, b, point) = (4, 3, ") + r"\d, \d, \(-?\d+(,-?\d+){3}\)\)"


def _patch_first_call(monkeypatch, owner, name, change):
    """Patch owner.name so that its first call returns change(its true result);
    the list returned receives that call's arguments."""
    real = getattr(owner, name)
    first = []

    def patched(*args):
        result = real(*args)
        if first:
            return result
        first.append(args)
        return change(result)

    monkeypatch.setattr(owner, name, patched)
    return first


def _olsson_witness(drawn):
    def expected():
        lam, s, t = drawn[0]
        return re.escape(f"(s, t, lambda) = ({s}, {t}, ({lam}))")

    return expected


def _t_core_test_lies_once(monkeypatch):
    _patch_first_call(monkeypatch, abacus, "is_s_core", lambda ok: not ok)
    # the first trial's draw, read off its descent, which is left true
    return _olsson_witness(_patch_first_call(monkeypatch, orbits, "descend_to_t_core", lambda r: r))


def _descent_ends_a_box_long_once(monkeypatch):
    def change(result):
        nu, trace = result
        return parts.Partition(nu.parts + (1,)), trace

    return _olsson_witness(_patch_first_call(monkeypatch, orbits, "descend_to_t_core", change))


def _descent_takes_one_step_too_many_once(monkeypatch):
    # no move leaves the minimiser by a strict fall of the sum of squares
    def change(result):
        nu, trace = result
        return nu, orbits.OrbitDescentTrace(trace.initial_sset, trace.t, trace.gens + (0,))

    return _olsson_witness(_patch_first_call(monkeypatch, orbits, "descend_to_t_core", change))


def _kappa_a_box_too_big(monkeypatch):
    real = orbits.kappa

    def broken(s, t):
        kap = real(s, t)
        return parts.Partition(kap.parts + (1,)) if (s, t) == (5, 7) else kap

    monkeypatch.setattr(orbits, "kappa", broken)
    return lambda: re.escape("(s, t) = (5, 7)")


def _count_one_too_many(monkeypatch):
    real = orbits.anderson_count
    monkeypatch.setattr(orbits, "anderson_count", lambda s, t: real(s, t) + ((s, t) == (3, 4)))
    return lambda: re.escape("(s, t) = (3, 4)")


def _containment_misses_the_empty_core(monkeypatch):
    real = parts.contains
    wrong = (orbits.kappa(3, 7), parts.Partition())
    monkeypatch.setattr(parts, "contains", lambda outer, inner: (outer, inner) != wrong and real(outer, inner))
    return lambda: re.escape("(s, t) = (3, 7)")


@pytest.mark.parametrize(
    "suite, check, mutant",
    [
        ("core-oracle", "core-oracle.beta-round-trip", _beta_round_trip_loses_a_box),
        # generator 1 then 2: not an involution
        ("actions", "actions.relations-psi",
         lambda mp: _psi_wrong_at_4_3(mp, lambda g, i, c: g(2, g(1, c)) if i == 1 else g(i, c))),
        # generator 2 is generator 1: 0 and 2 no longer commute
        ("actions", "actions.relations-psi",
         lambda mp: _psi_wrong_at_4_3(mp, lambda g, i, c: g(1 if i == 2 else i, c))),
        # generator 1 is generator 2: 0 and 1 no longer satisfy the braid relation
        ("actions", "actions.relations-psi",
         lambda mp: _psi_wrong_at_4_3(mp, lambda g, i, c: g(2 if i == 1 else i, c))),
        ("actions", "actions.commutation", _psi_is_chi_at_4_3),
        ("olsson", "olsson.t-core-is-s-core", _t_core_test_lies_once),
        ("olsson", "olsson.descent-matches-abacus", _descent_ends_a_box_long_once),
        ("olsson", "olsson.descent-strictly-decreasing", _descent_takes_one_step_too_many_once),
        ("vandehey", "vandehey.kane-size", _kappa_a_box_too_big),
        ("vandehey", "vandehey.anderson-count", _count_one_too_many),
        ("vandehey", "vandehey.containment", _containment_misses_the_empty_core),
    ],
    ids=["beta", "psi-involution", "psi-commute", "psi-braid", "commutation", "t-core-is-s-core",
         "descent-matches", "descent-decreasing", "kane-size", "anderson-count", "containment"],
)
def test_each_check_fails_alone_and_names_its_first_bad_input(capsys, monkeypatch, suite, check, mutant):
    """An engine made wrong on one input fails exactly the check that tests it,
    and that row ends with the input the engine got wrong."""
    expected = mutant(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 3
    rows = {line.split()[1]: line for line in out.splitlines()[:-1]}
    assert [name for name, row in rows.items() if row.startswith("FAIL")] == [check]
    assert re.search(r"; first " + expected() + "$", rows[check]), rows[check]


def test_core_oracle_memo_equals_brute_core():
    """Every (p, s) of the default corpus, |p| <= 12 and s <= 6, against the
    oracle run from scratch: the memo removes one rim hook per pair."""
    from stcores.verify import _brute_cores

    corpus = list(parts.partitions_up_to(12))
    pairs = [(p, s, core) for p, row in _brute_cores(corpus, 6) for s, _, core in row]
    assert len(pairs) == 1632
    for p, s, core in pairs:
        assert core == parts.brute_core(p, s), (p, s)


def test_verify_all_defaults_is_fast_and_green(capsys):
    with within(60, "verify"):
        code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out


def test_verify_is_deterministic_under_seed(capsys):
    args = ("verify", "--suite", "actions", "--seed", "7", "--trials", "40")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second


def test_round_trip_of_output_text(capsys):
    from stcores.alcoves import point_from_text

    _, out, _ = run_cli(capsys, "core", "--s", "5", "6,6,2,1")
    assert parts.from_text(out.strip()) == parts.Partition((5, 2, 2, 1))
    _, out, _ = run_cli(capsys, "qset", "--s", "5", "5,2,2,1")
    assert sset_from_text(out.strip(), 5) == abacus.make_sset(5, [5, -4, 2, -2, 9])
    _, out, _ = run_cli(capsys, "act", "chi", "--t", "4", "--word", "0", "(0,1,2)")
    assert point_from_text(out.strip()).coords == (-4, 1, 6)


_small = st.integers(-3, 9)


@st.composite
def _small_argv(draw):
    command = draw(st.sampled_from(["kappa", "count", "enumerate", "orbit-min", "chain", "act",
                                    "core", "qset", "verify", "diagram"]))
    s, t = str(draw(_small)), str(draw(_small))
    origin = "(" + ",".join(str(c) for c in range(max(int(s), 2))) + ")"
    if command in ("core", "qset"):
        return [command, "--s", s, ",".join(str(part) for part in draw(st.lists(_small, max_size=4)))]
    if command == "verify":
        suite = draw(st.sampled_from(["core-oracle", "actions", "olsson", "vandehey", "all"]))
        trials = str(draw(st.integers(-1, 3)))
        return [command, "--suite", suite, "--s-max", s, "--t-max", t, "--trials", trials]
    if command == "diagram":
        mode = draw(st.sampled_from(["cores", "tcores"]))
        depth = str(draw(st.integers(-1, 3)))
        return [command, "--s", s, "--mode", mode, "--depth", depth] + ["--t", t] * draw(st.booleans())
    if command == "orbit-min":
        return [command, "--s", s, "--t", t, draw(st.sampled_from(["", "2"]))]
    if command == "chain":
        return [command, "--s", s, "--t", t, origin]
    if command == "act":
        action = draw(st.sampled_from(["psi", "chi"]))
        word = " ".join(str(i) for i in draw(st.lists(_small, max_size=3)))
        return [command, action, "--t", t, "--word", word, origin]
    return [command, "--s", s, "--t", t]


@settings(max_examples=200, deadline=None)
@given(_small_argv())
def test_small_and_invalid_parameters_exit_cleanly(argv):
    """Zero, negative and non-coprime (s, t), partitions with zero or negative
    parts, verify maxima and trials below their floors and diagram depths
    below 1 end in an exit code, never a hang or traceback."""
    with within(10, " ".join(argv)), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), argv


def test_oversize_kappa_is_refused_before_building_it(capsys):
    """Kane's size for (200000, 200001) is about 6.7e19 > 2^62: exit 2 at once."""
    with within(10, "kappa --s 200000 --t 200001"):
        run_refused(capsys, "kappa", "--s", "200000", "--t", "200001")


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "--s", "30000", "--t", "30001"],  # tip span 9e8, Kane size 3.4e16 < 2^62
        ["kappa", "--s", "100000000", "--t", "1"],  # tip span 1e8, empty core
        ["core", "--s", "1000000000", "1"],  # 1e9 runners
    ],
    ids=" ".join,
)
def test_over_span_inputs_are_refused_up_front(capsys, argv):
    """The abacus span cap refuses these before any runner is laid out."""
    with within(10, " ".join(argv)):
        run_refused(capsys, *argv)


def test_enumerate_is_iterative_and_capped(capsys):
    """(2000, 1) has one core, the empty one, and <2000, 1> has no gaps to
    walk; (30, 31) is refused up front on its output price of
    anderson_count(30, 31) * 436 units: one per core and one per row, at
    most 435 rows a core."""
    with within(10, "enumerate"):
        assert run_cli(capsys, "enumerate", "--s", "2000", "--t", "1") == (0, "\n", "")
        run_refused(capsys, "enumerate", "--s", "30", "--t", "31")


def test_act_under_its_cap_applies_every_generator(capsys):
    """499 generators on 500 coordinates is 249,500 moves, under the cap.  Generator 1
    of chi_1 trades the values 0 and 1 between their two coordinates, so an odd
    count of them swaps the first two."""
    n = 500
    code, out, _ = run_cli(capsys, "act", "chi", "--t", "1", "--word", " ".join(["1"] * (n - 1)),
                           "(" + ",".join(map(str, range(n))) + ")")
    assert (code, out) == (0, "(" + ",".join(map(str, (1, 0, *range(2, n)))) + ")\n")


@pytest.mark.parametrize(
    "argv",
    [
        # C(401, 3) = 10,706,800 walls from the origin to the tip, cores of span up to 159,600
        ["chain", "--s", "400", "--t", "401", "(" + ",".join(map(str, range(400))) + ")"],
        # 20,000 generators, each moving 20,000 coordinates: 4e8
        ["act", "chi", "--t", "1", "--word", " ".join(["1"] * 20000), "(" + ",".join(map(str, range(20000))) + ")"],
        # 2.5e9 alcoves
        ["diagram", "--s", "3", "--depth", "100000"],
        # (6, 59) alone: 1,270,752 cores of at most 145 rows each, 1.9e8 units of the walk
        ["verify", "--suite", "vandehey", "--t-max", "60"],
        # 4 s^2 (s + 32) steps per random point and level at s = 40: 4.6e5
        ["verify", "--suite", "actions", "--s-max", "40"],
        ["verify", "--suite", "olsson", "--trials", "3000000"],
        # 272 corpus partitions against s up to 3000
        ["verify", "--suite", "core-oracle", "--s-max", "3000"],
        # olsson's price, 2e9 units for its pairs alone, is read before any pair is listed
        ["verify", "--s-max", "2", "--t-max", "1000000000"],
        ["verify", "--suite", "olsson", "--s-max", "100000", "--t-max", "100000"],
        # 5,000 steps of 10,001 elements each: 5.0e7
        ["orbit-min", "--s", "10001", "--t", "2", "10000"],
        # 50,000 steps of 100,001 elements each: 5.0e9
        ["orbit-min", "--s", "100001", "--t", "2", "100000"],
        # the 4,500-row staircase: 9,000 elements in all, but cores of spans summing to 2.0e7
        ["orbit-min", "--s", "2", "--t", "1", ",".join(map(str, range(4500, 0, -1)))],
    ],
    ids=[
        "chain-400-401",
        "act-chi-20000-generators-on-20000-coordinates",
        "diagram-depth-100000",
        "verify-vandehey-t-max-60",
        "verify-actions-s-max-40",
        "verify-olsson-trials-3000000",
        "verify-core-oracle-s-max-3000",
        "verify-t-max-1000000000",
        "verify-olsson-100000-100000",
        "orbit-min-10001-2",
        "orbit-min-100001-2",
        "orbit-min-2-1-staircase-4500",
    ],
)
def test_oversize_walks_and_diagrams_are_refused_up_front(capsys, argv):
    """Walks, words, diagrams, verify runs and descent printouts are refused from
    closed-form counts or a replay of the word, before any step is printed."""
    with within(10, " ".join(argv)):
        assert "exceeds the cap of 10000000" in run_refused(capsys, *argv)


def test_orbit_min_refusal_names_the_summed_spans(capsys):
    """The 4,500-row staircase at (2, 1): 4,500 steps pass the first bound, and the
    refusal names the sum of s plus each step's span, replayed here by chi_on_sset."""
    from stcores.affine_actions import chi_on_sset

    staircase = ",".join(map(str, range(4500, 0, -1)))
    _, trace = orbits.descend_to_t_core(parts.from_text(staircase), 2, 1)
    q, total = trace.initial_sset, 0
    for i in trace.gens:
        q = chi_on_sset(i, 1, q)
        total += 2 + max(q.elements) - min(q.elements)
    err = run_refused(capsys, "orbit-min", "--s", "2", "--t", "1", staircase)
    assert err == f"stcores: descent printout of {total} units of work exceeds the cap of 10000000\n"


def test_orbit_min_under_its_cap_prints_every_step(capsys):
    """(1000) descends at (1001, 2) in 500 steps, 1.5e6 units of printing: admitted."""
    with within(10, "orbit-min --s 1001 --t 2 1000"):
        code, out, err = run_cli(capsys, "orbit-min", "--s", "1001", "--t", "2", "1000")
    assert (code, err) == (0, "")
    lines = out.split("\n")
    assert len(lines) == 502 and lines[-2:] == ["", ""]  # 500 steps, the empty 2-core
    assert all(line.startswith(f"step {n}: gen=") for n, line in enumerate(lines[:500], start=1))


def _old_step_output(json_mode, input_obj, final_key, final, steps, s, t):
    """The output as it was built before streaming: every step at once, then
    one print of the whole text or of json.dumps of the whole payload."""
    records = [
        {"step": n, "gen": i, "sset": abacus.sset_to_text(q), "core": parts.to_text(core)}
        for n, (i, q, core) in enumerate(steps, start=1)
    ]
    if json_mode:
        payload = {"input": input_obj, "result": {final_key: final, "steps": records}, "meta": {"s": s, "t": t}}
        return json.dumps(payload) + "\n"
    lines = [f"step {r['step']}: gen={r['gen']} sset={r['sset']} core={r['core']}" for r in records]
    return "".join(line + "\n" for line in [*lines, final])


def _streamed(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _reference_orbit_min(lam, s, t, json_mode):
    nu, trace = orbits.descend_to_t_core(lam, s, t)
    steps = [(i, q, abacus.core_from_s_set(q)) for i, q in trace.steps]
    return _old_step_output(json_mode, {"partition": parts.to_text(lam)}, "t_core", parts.to_text(nu),
                            steps, s, t)


def _reference_chain(point_text, s, t, json_mode):
    chain = orbits.containment_chain(alcoves.point_from_text(point_text), s, t)
    steps = [(i, alcoves.sset_of_point(p), core) for i, p, core in zip(chain.gens, chain.points[1:], chain.cores[1:])]
    return _old_step_output(json_mode, {"point": point_text}, "final_core", parts.to_text(chain.cores[-1]),
                            steps, s, t)


def test_streamed_steps_equal_the_whole_payload_built_at_once():
    """orbit-min and chain, plain and --json, byte for byte against the old
    construction on seeded s-cores, s <= 9 and coprime t <= 11.  The t-core of
    each seeded core gives the zero-step descent and, as a rhomboid point, a
    chain start; the tip gives the zero-step chain."""
    rng = random.Random("streamed-steps")
    for s in range(2, 10):
        for t in (t for t in range(1, 12) if math.gcd(s, t) == 1):
            nu = None
            for _ in range(2):
                lam = random_s_core(rng, s, 400)
                nu = orbits.descend_to_t_core(lam, s, t)[0]
                for start in (lam, nu):
                    argv = ["orbit-min", "--s", str(s), "--t", str(t), parts.to_text(start)]
                    for json_mode in (False, True):
                        got = _streamed(argv + ["--json"] * json_mode)
                        assert got == _reference_orbit_min(start, s, t, json_mode), argv
            rhomboid = point_of_sset(abacus.q_set(nu, s))
            for point in (rhomboid, alcoves.tip(s, t)):
                point_text = alcoves.point_to_text(point)
                argv = ["chain", "--s", str(s), "--t", str(t), point_text]
                for json_mode in (False, True):
                    got = _streamed(argv + ["--json"] * json_mode)
                    assert got == _reference_chain(point_text, s, t, json_mode), argv
    for argv in (["orbit-min", "--s", "3", "--t", "4", "3,1,1"], ["chain", "--s", "3", "--t", "4", "(-3,1,5)"]):
        assert '"steps": []' in _streamed(argv + ["--json"])


def test_memo_printout_equals_to_text_at_benchmark_scale():
    """orbit-min of a seeded 1.1e6-box 11-core at (11, 13) prints 702 steps,
    713,000 rows; enumerate --s 8 --t 11 prints 3,978 cores.  Written through
    one memo of part names, both are byte for byte the output that formats
    every core with to_text, plain and --json."""
    q = abacus.make_sset(11, random_s_point(random.Random("bench-scale:2"), 11, 200).coords)
    lam = abacus.core_from_s_set(q)
    argv = ["orbit-min", "--s", "11", "--t", "13", parts.to_text(lam)]
    for json_mode in (False, True):
        assert _streamed(argv + ["--json"] * json_mode) == _reference_orbit_min(lam, 11, 13, json_mode)
    cores = [parts.to_text(p) for p in orbits.enumerate_st_cores(8, 11)]
    assert _streamed(["enumerate", "--s", "8", "--t", "11"]) == "".join(c + "\n" for c in cores)
    got = json.loads(_streamed(["enumerate", "--s", "8", "--t", "11", "--json"]))
    assert got["result"] == cores


class _Discard(io.TextIOBase):
    """A text sink that keeps only the count of characters written to it."""

    written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


def test_orbit_min_holds_one_core_at_a_time():
    """A 1.3e6-box 7-core descends at t = 9 in 666 steps and prints about 1.9 MB;
    written to a discarding sink, the traced peak stays below a quarter of that.
    Holding every step's core and line at once took 2.2x (plain) and 4.3x
    (--json) of the output size."""
    q = abacus.make_sset(7, random_s_point(random.Random("stream:2"), 7, 300).coords)
    argv = ["orbit-min", "--s", "7", "--t", "9", parts.to_text(abacus.core_from_s_set(q))]
    for json_mode in (False, True):
        # a small run first, so one-off caches (argparse, json) are not counted
        with redirect_stdout(_Discard()):
            cli.main(["orbit-min", "--s", "3", "--t", "4", "4,2,1,1"] + ["--json"] * json_mode)
        sink = _Discard()
        with peak_memory() as peak, redirect_stdout(sink):
            assert cli.main(argv + ["--json"] * json_mode) == 0
        assert sink.written > 1_500_000, json_mode
        assert peak.bytes < sink.written / 4, (json_mode, peak.bytes, sink.written)


def test_printout_memo_holds_the_parts_printed_not_the_largest():
    """A 1001-core of 1,001 rows whose first row is 1,001,000 descends at
    t = 100,101 in 10 steps, whose cores have about 1,000 rows and first rows
    up to 900,899.  The memo of part names holds the 4,609 distinct parts
    printed: a list indexed up to the largest part would take 8 bytes per
    position, 7.2 MB, and the traced peak stays below a quarter of that."""
    s, t = 1001, 100101
    q = abacus.make_sset(s, [r - s for r in range(s - 1)] + [s - 1 + s * (s - 1)])
    lam = abacus.core_from_s_set(q)
    nu, trace = orbits.descend_to_t_core(lam, s, t)
    largest = max(abacus.core_from_s_set(q).parts[0] for _, q in trace.iter_steps())
    assert (len(lam.parts), lam.parts[0], len(trace), largest) == (1001, 1001000, 10, 900899)
    argv = ["orbit-min", "--s", str(s), "--t", str(t), parts.to_text(lam)]
    with redirect_stdout(_Discard()):
        cli.main(["orbit-min", "--s", "3", "--t", "4", "4,2,1,1"])
    out = io.StringIO()
    with peak_memory() as peak, redirect_stdout(out):
        assert cli.main(argv) == 0
    lines = out.getvalue().split("\n")
    assert len(lines) == 12 and lines[-2] == parts.to_text(nu)
    assert peak.bytes < 8 * largest / 4, peak.bytes
