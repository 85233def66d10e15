"""Output checks: report tables, ledger records and job documents
against the pinned reference (``reference.json``)."""

import json


def parse_table(text):
    """``{workload: {column: cell text}}`` from a ``repro report`` table."""
    rows, columns = {}, None
    for line in text.splitlines():
        fields = line.split()
        if columns is None:
            if fields and fields[0] == "benchmark":
                columns = fields[1:]
            continue
        if not fields or line.startswith("#"):
            break
        if len(fields) != len(columns) + 1:
            raise ValueError(f"malformed table row {line!r}")
        rows[fields[0]] = dict(zip(columns, fields[1:]))
    if columns is None:
        raise ValueError("no table in report output")
    return rows


def read_ledger(path, start=0):
    """Ledger records from byte offset ``start`` on."""
    with open(path, "rb") as handle:
        handle.seek(start)
        lines = handle.read().decode().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def check_stats(reference, key, stats, verified):
    """Problem text for one job's result, or ``None`` when it matches
    the pinned cycle and commit counts and its checksum verified."""
    pinned = reference["jobs"].get(key)
    if pinned is None:
        return f"{key}: not in the pinned reference"
    if not verified:
        return f"{key}: checksum not verified"
    got = (stats.get("cycles"), stats.get("committed"))
    want = (pinned["cycles"], pinned["committed"])
    if got != want:
        return f"{key}: cycles/committed {got} != pinned {want}"
    return None


def check_report(reference, invocation, stdout, records):
    """Problems with one ``repro report`` invocation's output.

    Returns ``(failed job keys, problem texts)``. Every grid job must
    have a ledger record among ``records`` that matches the reference,
    and every table cell must equal the pinned cell.
    """
    expected = invocation.expected(reference)
    failed, problems = set(), []
    by_key = {f"{r['workload']}/{r['config_fingerprint']}": r
              for r in records}
    try:
        rows = parse_table(stdout)
    except ValueError as error:
        return {key for _, key in expected.values()}, [str(error)]
    for (name, column), (cell, key) in expected.items():
        got = rows.get(name, {}).get(column)
        if got != cell:
            failed.add(key)
            problems.append(f"{name} {column}: table shows {got!r}, "
                            f"pinned {cell!r}")
        record = by_key.get(key)
        problem = ("no ledger record" if record is None else
                   check_stats(reference, key, record["stats"],
                               record.get("verified")))
        if problem is not None:
            failed.add(key)
            problems.append(f"{key}: {problem}")
    return failed, problems
