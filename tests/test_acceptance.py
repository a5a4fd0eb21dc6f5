"""Acceptance criteria, one test per criterion.

Every test exercises its criterion at the stated tolerance and runtime
budget, records exactly one pass/fail line (replayed in the terminal
summary), then asserts. A criterion that cannot be met is left to fail
honestly with an explanation in its assertion message rather than being
weakened to pass.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from optsmp.cli import main as cli_main
from optsmp.combinatorics import (
    binomial_power_bound,
    count_rank,
    entropy_profile,
    iter_occupations,
    log_rank_bounds,
)
from optsmp.errors import PremiseViolationError
from optsmp.fock import (
    PureState,
    mean_photon_number,
    tail_probability,
    total_photons,
)
from optsmp.smp import (
    DiagonalMapReferee,
    FoldCode,
    SmpProtocol,
    coherent_accept_probability,
    coherent_fingerprint_protocol,
    deterministic_cc_matrix,
    equality_function,
    evaluate_error,
    letter_per_input,
)
from optsmp.truncation import (
    check_gentle_measurement,
    check_projector_closeness,
    perturbed_error_bound,
    transform_protocol,
)
from optsmp.verify import DenseOperator, _dense_basis, _random_dense, _random_sparse_pure
from verify_oracle import random_dense_concentrated

SEED = 20260814


def _line(cid: str, title: str, ok: bool, detail: str) -> str:
    status = "PASS" if ok else "FAIL"
    return f"criterion {cid} [{title}]: {status} {detail}"


@lru_cache(maxsize=None)
def _qfp4() -> SmpProtocol:
    return coherent_fingerprint_protocol(4, FoldCode(4, 4, 3), 2.0)


# ---------------------------------------------------------------------------

def test_criterion_01_binomial_power_bound_sweep(criterion_report):
    t0 = time.perf_counter()
    violations = 0
    for n in range(1, 51):
        for m in range(1, 51):
            binom, bound = binomial_power_bound(n, m)
            if binom > bound:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    criterion_report(
        _line("01", "exact binomial power bound, 2500 cases", ok,
              f"violations={violations} elapsed={elapsed:.2f}s")
    )
    assert violations == 0
    assert elapsed < 5.0


def test_criterion_02_rank_formula_vs_enumeration(criterion_report):
    t0 = time.perf_counter()
    mismatches = 0
    cases = 0
    for m in range(1, 6):
        for a in range(0, 9):
            cases += 1
            if count_rank(m, a).rank != sum(1 for _ in iter_occupations(m, a)):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    criterion_report(
        _line("02", "closed-form rank equals enumeration, m<=5 a<=8", ok,
              f"cases={cases} mismatches={mismatches} elapsed={elapsed:.2f}s")
    )
    assert mismatches == 0
    assert elapsed < 5.0


def test_criterion_03_log_rank_bound_grid(criterion_report):
    t0 = time.perf_counter()
    min_slack = math.inf
    cases = 0
    for m in range(2, 65):
        for mu in (0.5, 1.0, 2.0, 4.0, 8.0):
            for delta in (1e-1, 1e-2, 1e-4):
                b = log_rank_bounds(m, mu, delta)
                slack = min(b.bound_photon, b.bound_mode) - b.log2_rank
                min_slack = min(min_slack, slack)
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = min_slack >= -1e-9 and elapsed < 30.0
    criterion_report(
        _line("03", "log2 rank below both closed-form bounds", ok,
              f"cases={cases} min_slack={min_slack:.3e} elapsed={elapsed:.2f}s")
    )
    assert min_slack >= -1e-9
    assert elapsed < 30.0


def test_criterion_04_gentle_measurement(criterion_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng([SEED, 4])
    min_slack = math.inf
    for _ in range(1000):
        modes = int(rng.integers(1, 4))
        dense = _random_dense(rng, modes)
        max_total = max(total_photons(o) for o in dense.basis)
        cutoff = int(rng.integers(0, max_total + 1))
        min_slack = min(min_slack, check_gentle_measurement(dense, cutoff))
    max_pure_dev = 0.0
    for _ in range(1000):
        modes = int(rng.integers(1, 4))
        pure = _random_sparse_pure(rng, modes, 6, 12)
        lo = min(total_photons(o) for o in pure.amplitudes)
        cutoff = int(rng.integers(lo, pure.max_total_photons() + 1))
        max_pure_dev = max(max_pure_dev, abs(check_gentle_measurement(pure, cutoff)))
    elapsed = time.perf_counter() - t0
    ok = min_slack >= -1e-9 and max_pure_dev <= 1e-9 and elapsed < 60.0
    criterion_report(
        _line("04", "projection keeps fidelity >= sqrt(weight)", ok,
              f"dense_min_slack={min_slack:.3e} pure_max_dev={max_pure_dev:.3e} "
              f"elapsed={elapsed:.2f}s")
    )
    assert min_slack >= -1e-9
    assert max_pure_dev <= 1e-9
    assert elapsed < 60.0


def test_criterion_05_projector_closeness(criterion_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng([SEED, 5])
    held = {0.3: 0, 0.1: 0, 0.02: 0}
    min_slack = math.inf
    for i in range(900):
        delta = (0.3, 0.1, 0.02)[i % 3]
        modes = int(rng.integers(1, 4))
        basis_max = {1: 31, 2: 6, 3: 3}[modes]
        cutoff = int(rng.integers(1, basis_max))
        above = float(rng.uniform(0.0, 1.5 * delta))
        state = DenseOperator(_dense_basis(modes), random_dense_concentrated(rng, modes, cutoff, above))
        try:
            slack = check_projector_closeness(state, cutoff, delta)
        except PremiseViolationError:
            continue
        held[delta] += 1
        min_slack = min(min_slack, slack)
    elapsed = time.perf_counter() - t0
    coverage_ok = all(count >= 50 for count in held.values())
    ok = min_slack >= -1e-9 and coverage_ok and elapsed < 60.0
    criterion_report(
        _line("05", "high-weight projection stays within sqrt(delta)", ok,
              f"held={held} min_slack={min_slack:.3e} elapsed={elapsed:.2f}s")
    )
    assert coverage_ok, f"premise held too rarely: {held}"
    assert min_slack >= -1e-9
    assert elapsed < 60.0


def test_criterion_06_protocol_transform_budget(criterion_report):
    t0 = time.perf_counter()
    protocol = _qfp4()
    before = evaluate_error(protocol).worst_error
    truncated = transform_protocol(protocol, 1e-4)
    budget = perturbed_error_bound(before, math.sqrt(1e-4))
    after = evaluate_error(truncated).worst_error
    qfp_ok = after <= before + 2.0 * math.sqrt(1e-4) + 1e-9

    base = SmpProtocol(
        name="toy", n=1, m=1, mu=2.0,
        letters=(PureState.basis_state((0,)), PureState.basis_state((1,))),
        codewords=letter_per_input,
        referee=DiagonalMapReferee(),
    )
    base_error = evaluate_error(base).worst_error
    toy_min_slack = math.inf
    for theta in (0.05, 0.2, 0.45):
        perturbed = SmpProtocol(
            name="toy-perturbed", n=1, m=1, mu=2.0,
            letters=tuple(
                PureState(1, {(x,): math.cos(theta), (x + 1,): math.sin(theta)}, normalize=True)
                for x in (0, 1)
            ),
            codewords=letter_per_input,
            referee=base.referee,
        )
        t = abs(math.sin(theta))  # exact per-message trace distance
        err = evaluate_error(perturbed).worst_error
        toy_min_slack = min(toy_min_slack, base_error + 2.0 * t + 1e-9 - err)
    elapsed = time.perf_counter() - t0
    ok = qfp_ok and toy_min_slack >= 0.0 and elapsed < 120.0
    criterion_report(
        _line("06", "truncation inflates worst error by at most 2*sqrt(delta)", ok,
              f"before={before:.6f} after={after:.6f} budget={budget:.6f} "
              f"toy_min_slack={toy_min_slack:.3e} elapsed={elapsed:.2f}s")
    )
    assert qfp_ok
    assert toy_min_slack >= 0.0
    assert elapsed < 120.0


def test_criterion_07_photon_tail_markov(criterion_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng([SEED, 7])
    from optsmp.verify import _random_diagonal

    min_slack = math.inf
    cases = 0
    for i in range(1000):
        modes = int(rng.integers(1, 4))
        kind = i % 3
        if kind == 0:
            state = _random_sparse_pure(rng, modes, 6, 12)
        elif kind == 1:
            state = _random_diagonal(rng, modes, 6, 12)
        else:
            state = _random_dense(rng, modes)
        mean = mean_photon_number(state)
        for a in (0.5, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0):
            slack = mean / a + 1e-12 - tail_probability(state, a)
            min_slack = min(min_slack, slack)
            cases += 1
    elapsed = time.perf_counter() - t0
    ok = min_slack >= 0.0 and elapsed < 10.0
    criterion_report(
        _line("07", "photon-count tail below mean/threshold", ok,
              f"cases={cases} min_slack={min_slack:.3e} elapsed={elapsed:.2f}s")
    )
    assert min_slack >= 0.0
    assert elapsed < 10.0


def test_criterion_08a_fingerprint_error_below_one_third(criterion_report):
    # A pair at code distance d is accepted with probability
    # exp(-2*(mu_total/m)*d), so the worst error drops below 1/3 exactly when
    # mu_total > m*ln(3)/(2*d_min): 2*ln(3) ~= 2.1972 for this code.
    t0 = time.perf_counter()
    code = FoldCode(4, 4, 3)
    threshold = code.m * math.log(3.0) / (2.0 * code.min_distance)
    mu_total = 2.2  # the first tenth above the threshold
    report = evaluate_error(coherent_fingerprint_protocol(4, code, mu_total))
    below = evaluate_error(_qfp4())
    elapsed = time.perf_counter() - t0
    ok = (report.worst_error < 1.0 / 3.0 < below.worst_error) and elapsed < 120.0
    criterion_report(
        _line("08a", f"n=4, m=12, mu_total={mu_total} fingerprint worst error < 1/3", ok,
              f"worst_error={report.worst_error!r} worst_pair={report.worst_pair} "
              f"threshold={threshold:.4f} worst_error_at_mu_total_2={below.worst_error!r} "
              f"elapsed={elapsed:.2f}s")
    )
    assert len(report.pair_errors) == 256 and len(below.pair_errors) == 256
    assert 2.0 < threshold < mu_total
    assert elapsed < 120.0
    assert report.worst_error < 1.0 / 3.0, (
        f"mu_total={mu_total} lies above the bounded-error threshold "
        f"m*ln(3)/(2*d_min) = {threshold:.4f} for m={code.m}, d_min={code.min_distance}, "
        f"so the worst error should be exp(-2*{mu_total}*{code.min_distance}/{code.m}) "
        f"< 1/3, but it is {report.worst_error!r} at pair {report.worst_pair}"
    )
    assert below.worst_error > 1.0 / 3.0, (
        f"mu_total=2 lies below the bounded-error threshold {threshold:.4f}, so the "
        f"worst error should be exp(-1) > 1/3, but it is {below.worst_error!r}"
    )


def test_criterion_08b_fingerprint_matches_closed_form(criterion_report):
    t0 = time.perf_counter()
    protocol = _qfp4()
    report = evaluate_error(protocol)
    max_dev = 0.0
    for x, y, f, p_error in report.pair_errors:
        if f == 1:
            continue
        distance = bin(x ^ y).count("1") * 3
        accept = coherent_accept_probability(2.0, 12, distance)
        max_dev = max(max_dev, abs(p_error - accept))
    tail = protocol.message_tail
    elapsed = time.perf_counter() - t0
    ok = max_dev <= 1e-7 and tail < 1e-10 and elapsed < 120.0
    criterion_report(
        _line("08b", "accept probabilities match exp(-2|alpha|^2 d)", ok,
              f"max_deviation={max_dev:.3e} message_tail={tail:.3e} "
              f"elapsed={elapsed:.2f}s")
    )
    assert max_dev <= 1e-7
    assert tail < 1e-10
    assert elapsed < 120.0


def test_criterion_08c_binding_truncation_at_paper_scale(criterion_report):
    # qfp n=63 with repeats 3 (m=189) at delta 0.19: the cutoff a=10 binds,
    # far past any per-mode projection. Each projected pair's acceptance must
    # stay within 2*sqrt(delta) of the untruncated exp(-2*mu*d/m), and the
    # worst sampled error within the certified budget.
    t0 = time.perf_counter()
    mu, delta = 2.0, 0.19
    protocol = coherent_fingerprint_protocol(63, FoldCode(63, 63, 3), mu)
    before = evaluate_error(protocol, samples=1000, seed=1)
    truncated = transform_protocol(protocol, delta)
    budget = perturbed_error_bound(before.worst_error, math.sqrt(delta))
    after = evaluate_error(truncated, samples=1000, seed=1)
    max_dev = 0.0
    for x, y, f, p_error in after.pair_errors:
        if f == 0:
            accept = coherent_accept_probability(mu, protocol.m, 3 * bin(x ^ y).count("1"))
            max_dev = max(max_dev, abs(p_error - accept))
    cutoff = truncated.referee.cutoff
    elapsed = time.perf_counter() - t0
    ok = max_dev <= 2.0 * math.sqrt(delta) and after.worst_error <= budget and elapsed < 30.0
    criterion_report(
        _line("08c", "n=63, m=189, a=10 binding truncation within its budget", ok,
              f"cutoff={cutoff} worst_error_after={after.worst_error!r} budget={budget!r} "
              f"max_deviation={max_dev:.3e} elapsed={elapsed:.2f}s")
    )
    assert cutoff == 10 < protocol.max_total_photons()
    assert max_dev <= 2.0 * math.sqrt(delta)
    assert after.worst_error <= budget
    assert elapsed < 30.0


def test_criterion_09_entropy_profile(criterion_report, tmp_path):
    t0 = time.perf_counter()
    rows = list(entropy_profile(range(1, 10001)))
    min_gap = math.inf
    window_ok = True
    for row in rows:
        min_gap = min(min_gap, row["entropy_bound"] - row["log2_rank"])
        if row["n"] >= 100 and not 0.5 <= row["rank_over_sqrt_n"] <= 2.1:
            window_ok = False
    csv_path = tmp_path / "entropy_profile.csv"
    lines = ["n,m,a,log2_rank,entropy_bound,rank_over_sqrt_n,bound_over_sqrt_n"]
    lines += [
        f"{r['n']},{r['m']},{r['a']},{r['log2_rank']!r},{r['entropy_bound']!r},"
        f"{r['rank_over_sqrt_n']!r},{r['bound_over_sqrt_n']!r}"
        for r in rows
    ]
    csv_path.write_text("\n".join(lines) + "\n")
    emitted = csv_path.stat().st_size > 0 and len(rows) == 10000
    elapsed = time.perf_counter() - t0
    ok = min_gap >= -1e-9 and window_ok and emitted and elapsed < 30.0
    criterion_report(
        _line("09", "entropy bound dominates rank; sqrt-growth window", ok,
              f"rows={len(rows)} min_gap={min_gap:.3e} window_ok={window_ok} "
              f"elapsed={elapsed:.2f}s")
    )
    assert min_gap >= -1e-9
    assert window_ok
    assert emitted
    assert elapsed < 30.0


def test_criterion_10_deterministic_cost_oracle(criterion_report):
    t0 = time.perf_counter()
    values_ok = (
        deterministic_cc_matrix(equality_function(1)) == 2
        and deterministic_cc_matrix(equality_function(2)) == 3
        and deterministic_cc_matrix([[0] * 4] * 4) == 0
        and deterministic_cc_matrix([[1] * 4] * 4) == 0
    )
    monotone = True
    for bits in range(16):
        full = [[(bits >> (2 * i + j)) & 1 for j in range(2)] for i in range(2)]
        d_full = deterministic_cc_matrix(full)
        for rows in ([0], [1], [0, 1]):
            for cols in ([0], [1], [0, 1]):
                sub = [[full[i][j] for j in cols] for i in rows]
                if deterministic_cc_matrix(sub) > d_full:
                    monotone = False
    elapsed = time.perf_counter() - t0
    ok = values_ok and monotone and elapsed < 60.0
    criterion_report(
        _line("10", "deterministic cost oracle values and monotonicity", ok,
              f"reference_values_ok={values_ok} submatrix_monotone={monotone} "
              f"elapsed={elapsed:.2f}s")
    )
    assert values_ok
    assert monotone
    assert elapsed < 60.0


def test_criterion_11_byte_identical_outputs(criterion_report, tmp_path):
    t0 = time.perf_counter()
    import json

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(
        {"kind": "grid", "m": [2, 4, 8], "mu": [0.5, 2.0], "delta": [1e-2, 1e-4]}
    ))
    proto = tmp_path / "proto.json"
    proto.write_text(json.dumps(
        {"type": "qfp", "n": 2, "mu": 2.0, "code": {"kind": "repetition", "repeats": 3}}
    ))

    identical = True
    codes_ok = True
    for name, args in (
        ("verify", ["verify", "--seed", "1729"]),
        ("bounds", ["bounds", "--config", str(grid)]),
        ("simulate", ["simulate", "--config", str(proto)]),
        ("simulate-sampled", ["simulate", "--config", str(proto), "--samples", "9", "--seed", "3"]),
    ):
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{name}-{run}.out"
            code = cli_main(args + ["--out", str(out)])
            codes_ok = codes_ok and code == 0
            blobs.append(out.read_bytes())
        identical = identical and blobs[0] == blobs[1]
    elapsed = time.perf_counter() - t0
    ok = identical and codes_ok
    criterion_report(
        _line("11", "verify/bounds/simulate outputs are byte-identical", ok,
              f"exit_codes_ok={codes_ok} identical={identical} elapsed={elapsed:.2f}s")
    )
    assert codes_ok
    assert identical
