CRITERIA_LABELS = {
    1: "gradient integrity (full-model finite-difference check)",
    2: "attention normalization and permutation behavior",
    3: "residual and pooling identities",
    4: "metric oracle equivalence",
    5: "otsu oracle equivalence",
    6: "synthetic learnability (3-head gated model)",
    7: "ablation trend (3-head >= 1-head >= pooling-only)",
    8: "bit-exact reproducibility of runs",
    9: "round trips and corruption detection",
}


def _criterion_number(nodeid):
    if "test_acceptance.py" not in nodeid:
        return None
    name = nodeid.split("::")[-1]
    if not name.startswith("test_c"):
        return None
    digits = ""
    for ch in name[len("test_c"):]:
        if ch.isdigit():
            digits += ch
        else:
            break
    return int(digits) if digits else None


def pytest_collection_modifyitems(session, config, items):
    # c7 waits on eight of the nine 50-epoch training arms, most of the
    # suite's wall time, so it runs last and every other result comes first
    items.sort(key=lambda item: _criterion_number(item.nodeid) == 7)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            num = _criterion_number(getattr(report, "nodeid", ""))
            if num is not None:
                ok = outcome == "passed" and results.get(num, True)
                results[num] = ok
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(results):
        verdict = "PASS" if results[num] else "FAIL"
        label = CRITERIA_LABELS.get(num, "")
        terminalreporter.write_line(f"criterion {num}: {verdict} - {label}")
