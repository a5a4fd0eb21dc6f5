"""Output checks against references the program did not compute.

Each ``check_*`` function takes a request's check parameters and the text the
CLI wrote, and returns a list of problems (empty when the output is right).
References:

* coherent fingerprints: the closed form exp(-2 mu d / m) for the accept
  probability at codeword distance d (Arrazola & Lutkenhaus, PRA 89, 062305,
  2014), with codewords built here from the code definitions, within the
  mass the two pre-truncated messages discard;
* classical-trivial: the codeword-collision count;
* ``rank`` and ``bounds``: exact C(a+m, m) and the closed-form bounds;
* ``dcc``: D = n + 1 for n-bit equality, and for other tables the
  rank lower bound and the distinct-rows upper bound;
* ``verify``: the report's own ``overall=pass`` line.
"""

from __future__ import annotations

import math
from fractions import Fraction


def codeword_distance(code: dict, n: int, diff: int) -> int:
    """Hamming distance between the codewords of x and y, given diff = x ^ y.

    Both codes are linear over GF(2), so the distance is the weight of the
    codeword of ``diff``.
    """
    if code["kind"] == "repetition":
        return code["repeats"] * bin(diff).count("1")
    folded = 0
    for i in range(n):
        if diff >> i & 1:
            folded ^= 1 << (i % code["m"])
    return bin(folded).count("1")


def code_length(code: dict, n: int) -> int:
    return n * code["repeats"] if code["kind"] == "repetition" else code["m"]


def cutoff_matches(a: int, mu: float, delta: float) -> bool:
    """a = floor(mu/delta), allowing the documented snap of ratios within
    1e-9 (relative) of an integer."""
    ratio = mu / delta
    return a == math.floor(ratio) or (a == round(ratio) and abs(ratio - a) <= 1e-9 * max(1.0, ratio))


def _close(value: float, ref: float, rel: float = 1e-12) -> bool:
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def _header(lines: list[str]) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in lines:
        if not line.startswith("# "):
            break
        for token in line[2:].split():
            key, _, value = token.partition("=")
            fields[key] = value
    return fields


def check_simulate(check: dict, text: str, notes: dict) -> list[str]:
    lines = text.splitlines()
    head = _header(lines)
    body = [line for line in lines if not line.startswith("#")]
    n = check["n"]
    truncate = check.get("truncate")
    want_cols = "x,y,f,p_error,p_error_truncated" if truncate else "x,y,f,p_error"
    if not body or body[0] != want_cols:
        return [f"unexpected column header {body[:1]!r}"]
    rows = [line.split(",") for line in body[1:]]
    problems: list[str] = []
    size = 1 << n
    if "samples" in check:
        if len(rows) != check["samples"] or head.get("mode") != "sampled":
            problems.append(f"sampled mode returned {len(rows)} rows")
    elif [(int(r[0]), int(r[1])) for r in rows] != [(x, y) for x in range(size) for y in range(size)]:
        problems.append("exhaustive rows do not cover every (x, y) pair in order")
    if problems:
        return problems

    errors = [float(r[3]) for r in rows]
    if head.get("worst_error") is None or float(head["worst_error"]) != max(errors):
        problems.append(f"worst_error {head.get('worst_error')} is not the column maximum {max(errors)!r}")
    tail = float(head.get("message_tail", "nan"))
    code = check["code"]
    qfp = check["type"] == "qfp"
    if qfp:
        m = code_length(code, n)
        # Both messages are pre-truncated and renormalised, so the referee
        # misses the joint mass 1 - (1 - tail)^2 ~ 2 * tail; at distance 0
        # the accept probability falls by at most that mass over the kept one.
        kept = (1.0 - tail) ** 2
        tol = (1.0 - kept) / kept + 1e-12
    collisions = 0
    for row, p in zip(rows, errors):
        x, y, f = int(row[0]), int(row[1]), int(row[2])
        if x >= size or y >= size or f != int(x == y):
            problems.append(f"bad pair or target in row {row}")
            break
        d = codeword_distance(code, n, x ^ y)
        if qfp:
            accept = math.exp(-2.0 * check["mu"] * d / m)
            ref = 1.0 - accept if f else accept
            if not abs(p - ref) <= tol:
                problems.append(f"pair ({x},{y}) p_error={p!r}, closed form {ref!r}, tolerance {tol!r}")
                break
        else:
            ref = 1.0 if (d == 0 and x != y) else 0.0
            collisions += ref == 1.0
            if p != ref:
                problems.append(f"pair ({x},{y}) p_error={p!r}, expected {ref!r}")
                break
    if not qfp:
        expected = size * sum(1 for diff in range(1, size) if codeword_distance(code, n, diff) == 0)
        if collisions != expected:
            problems.append(f"{collisions} colliding pairs, expected {expected}")
    if truncate and not problems:
        problems.extend(_check_truncation(check, head, rows, errors, tail, notes))
    return problems


def _check_truncation(check, head, rows, errors, tail, notes) -> list[str]:
    delta = check["truncate"]
    cutoff = int(head["cutoff"])
    before = float(head["worst_error_before"])
    after = float(head["worst_error_after"])
    budget = float(head["error_budget"])
    truncated = [float(r[4]) for r in rows]
    problems = []
    if not cutoff_matches(cutoff, check["mu"], delta):
        problems.append(f"cutoff {cutoff} is not floor(mu/delta) for mu={check['mu']} delta={delta}")
    if before != max(errors) or after != max(truncated):
        problems.append("worst_error_before/after do not match the columns")
    if not _close(budget, before + 2.0 * math.sqrt(delta)):
        problems.append(f"error_budget {budget!r} != before + 2 sqrt(delta)")
    if not after <= budget:
        problems.append(f"worst_error_after {after!r} exceeds error_budget {budget!r}")
    if "binding_cutoff" in check:
        if cutoff != check["binding_cutoff"]:
            problems.append(f"cutoff {cutoff}, generator intended {check['binding_cutoff']}")
        if truncated == errors:
            problems.append("binding cutoff left every pair error unchanged")
        slack = 2.0 * math.sqrt(delta) + 1e-12
        for row, p, pt in zip(rows, errors, truncated):
            if not abs(pt - p) <= slack:
                problems.append(f"pair ({row[0]},{row[1]}) moved by {abs(pt - p)!r} > 2 sqrt(delta)")
                break
        notes["inflation"] = after - before
        notes["two_sqrt_delta"] = 2.0 * math.sqrt(delta)
    elif truncated != errors or after != before:
        problems.append("vacuous cutoff changed the pair errors")
    return problems


def check_rank(check: dict, text: str, notes: dict) -> list[str]:
    fields = dict(token.partition("=")[::2] for token in text.split())
    m, mu, delta = check["m"], check["mu"], check["delta"]
    a = int(fields["a"])
    rank = int(fields["rank"])
    log2_rank = float(fields["log2_rank"])
    photon = float(fields["bound_photon"])
    mode = float(fields["bound_mode"])
    problems = []
    if int(fields["m"]) != m or not cutoff_matches(a, mu, delta):
        problems.append(f"m={fields['m']} a={a} do not match the request")
    if rank != math.comb(a + m, m):
        problems.append("rank is not C(a+m, m)")
    if not _close(log2_rank, math.log2(rank)):
        problems.append(f"log2_rank {log2_rank!r} != log2(rank)")
    ratio = mu / delta
    if not (_close(photon, ratio * math.log2(1 + m)) and _close(mode, m * math.log2(1 + ratio))):
        problems.append("bound_photon/bound_mode differ from their closed forms")
    if not log2_rank <= min(photon, mode):
        problems.append(f"log2_rank {log2_rank!r} exceeds min(bound_photon, bound_mode)")
    return problems


def _real_rank(rows: list[list[int]]) -> int:
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] / mat[rank][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def check_dcc(check: dict, text: str, notes: dict) -> list[str]:
    first = text.splitlines()[0]
    if not first.startswith("D="):
        return [f"unexpected dcc output {first!r}"]
    d = int(first[2:])
    if "equality_n" in check:
        want = check["equality_n"] + 1
        return [] if d == want else [f"D={d} for equality n={check['equality_n']}, expected {want}"]
    values = check["values"]
    if len({v for row in values for v in row}) == 1:
        return [] if d == 0 else [f"D={d} for a constant table"]
    rank = _real_rank(values)
    lower = math.ceil(math.log2(rank)) if rank else 0
    distinct = min(len({tuple(r) for r in values}), len({tuple(c) for c in zip(*values)}))
    upper = math.ceil(math.log2(distinct)) + 1
    if not lower <= d <= upper:
        return [f"D={d} outside [log2 rank, log2 distinct lines + 1] = [{lower}, {upper}]"]
    return []


def check_bounds(check: dict, text: str, notes: dict, config: dict) -> list[str]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = [line.split(",", 12) for line in lines[1:]]
    problems = []
    if config["kind"] == "grid":
        want = [(None, m, mu, d) for m in config["m"] for mu in config["mu"] for d in config["delta"]]
    else:
        r = config["repeats"]
        want = [(n, n * r, config["mu"], config["delta"]) for n in config["n"]]
    if len(rows) != len(want):
        return [f"{len(rows)} rows, expected {len(want)}"]
    for row, (n, m, mu, delta) in zip(rows, want):
        a = int(row[4])
        log2_rank = float(row[5])
        photon, mode, lhs = float(row[6]), float(row[7]), float(row[8])
        if row[0] != ("" if n is None else str(n)) or int(row[1]) != m or float(row[2]) != mu or float(row[3]) != delta:
            problems.append(f"row {row[:4]} does not match the sweep point ({n}, {m}, {mu}, {delta})")
        elif not cutoff_matches(a, mu, delta):
            problems.append(f"row {row[:4]}: a={a} is not floor(mu/delta)")
        elif not (_close(log2_rank, math.log2(math.comb(a + m, m))) and _close(float(row[9]), log2_rank)):
            problems.append(f"row {row[:4]}: log2_rank/classical_lhs differ from log2 C(a+m, m)")
        elif not (_close(photon, mu * math.log2(m)) and _close(mode, m * math.log2(1 + mu / delta)) and lhs == min(photon, mode)):
            problems.append(f"row {row[:4]}: tradeoff terms differ from their closed forms")
        elif not float(row[10]) >= log2_rank - 1e-9:
            problems.append(f"row {row[:4]}: entropy_bound below log2_rank")
        elif row[11] != (str(n + 1) if n is not None and n <= 3 else ""):
            problems.append(f"row {row[:4]}: D_exact={row[11]!r}")
        if problems:
            break
    return problems


def check_verify(check: dict, text: str, notes: dict) -> list[str]:
    last = text.splitlines()[-1] if text else ""
    return [] if last.startswith("overall=pass") else [f"verify reported {last!r}"]


def check_output(check: dict, config: dict | None, text: str, notes: dict) -> list[str]:
    """Problems with one request's output; ``notes`` collects observations."""
    kind = check["type"]
    try:
        if kind in ("qfp", "classical-trivial"):
            return check_simulate(check, text, notes)
        if kind == "rank":
            return check_rank(check, text, notes)
        if kind == "dcc":
            return check_dcc(check, text, notes)
        if kind == "bounds":
            return check_bounds(check, text, notes, config)
        return check_verify(check, text, notes)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]
