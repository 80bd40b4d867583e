"""Tiny stand-in for an external MILP solver, used to exercise the LP-file
bridge: parses the LP subset the package writes, enumerates all binary
vectors, and writes the best feasible one as "name value" lines under a
"# status optimal" comment (the enumeration is exhaustive).

Usage: python lp_stub.py MODEL.lp OUT.sol
"""

import re
import sys


def parse_lp(path):
    text = open(path).read()
    section = None
    objective = {}
    rows = []
    variables = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("maximize", "minimize"):
            section = "obj"
            continue
        if low == "subject to":
            section = "rows"
            continue
        if low == "binary":
            section = "bin"
            continue
        if low == "end":
            break
        if section == "obj":
            objective.update(parse_expr(line.split(":", 1)[1]))
        elif section == "rows":
            body = line.split(":", 1)[1]
            m = re.search(r"(<=|>=|=)\s*([-\d.eE+]+)\s*$", body)
            sense, rhs = m.group(1), float(m.group(2))
            rows.append((parse_expr(body[: m.start()]), sense, rhs))
        elif section == "bin":
            variables.append(line)
    return objective, rows, variables


def parse_expr(text):
    coefs = {}
    number = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
    for sign, num, var in re.findall(
        rf"([+-]?)\s*({number})?\s*([A-Za-z_]\w*)", text
    ):
        c = float(num) if num else 1.0
        if sign == "-":
            c = -c
        coefs[var] = coefs.get(var, 0.0) + c
    return coefs


def main():
    lp_path, sol_path = sys.argv[1], sys.argv[2]
    objective, rows, variables = parse_lp(lp_path)
    if len(variables) > 22:
        raise SystemExit(f"stub cannot enumerate {len(variables)} binaries")
    best_val, best = None, None
    for bits in range(2 ** len(variables)):
        vals = {v: (bits >> i) & 1 for i, v in enumerate(variables)}
        ok = True
        for coefs, sense, rhs in rows:
            lhs = sum(c * vals.get(v, 0) for v, c in coefs.items())
            if sense == "<=" and lhs > rhs + 1e-9:
                ok = False
            elif sense == ">=" and lhs < rhs - 1e-9:
                ok = False
            elif sense == "=" and abs(lhs - rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        val = sum(c * vals.get(v, 0) for v, c in objective.items())
        if best_val is None or val > best_val + 1e-12:
            best_val, best = val, vals
    if best is None:
        raise SystemExit("infeasible model")
    with open(sol_path, "w") as fh:
        fh.write(f"# Objective value = {best_val}\n")
        fh.write("# status optimal\n")  # exhaustive enumeration proves it
        for v, x in best.items():
            fh.write(f"{v} {x}\n")


if __name__ == "__main__":
    main()
