"""Output checks and simulated-statistics fingerprints for perfbench.

Each check takes a parsed --json report and returns a list of problems;
an empty list means the run is correct.  Fingerprints summarise what was
simulated (not how fast), so a change that only touches host time must
leave them identical.
"""

import hashlib
import json

CAMPAIGN_COVERAGE = "12/24"


def parse_report(data):
    """Parse report bytes; returns (doc, problems)."""
    try:
        return json.loads(data), []
    except (ValueError, UnicodeDecodeError) as e:
        return None, [f"report does not parse: {e}"]


def check_campaign(doc, expect_runs=None, expect_coverage=CAMPAIGN_COVERAGE):
    """A faultsim campaign report: zero violations anywhere, the expected
    run count and site coverage, and internally consistent totals."""
    problems = []
    if not isinstance(doc, dict):
        return ["campaign report is not an object"]
    for key in ("runs", "total_runs", "total_violations", "coverage", "baseline"):
        if key not in doc:
            problems.append(f"campaign report lacks {key!r}")
    if problems:
        return problems
    runs = doc["runs"]
    if doc["total_violations"] != 0:
        problems.append(f"{doc['total_violations']} violations")
    if doc["baseline"].get("violations"):
        problems.append("baseline run has violations")
    violating = sum(1 for r in runs if r.get("violations"))
    if violating:
        problems.append(f"{violating} runs with violations")
    if len(runs) != doc["total_runs"]:
        problems.append(f"{len(runs)} run rows but total_runs {doc['total_runs']}")
    if expect_runs is not None and doc["total_runs"] != expect_runs:
        problems.append(f"{doc['total_runs']} runs, expected {expect_runs}")
    if expect_coverage is not None and doc["coverage"] != expect_coverage:
        problems.append(f"coverage {doc['coverage']}, expected {expect_coverage}")
    return problems


def check_fleet(doc, expect_devices):
    """An artemis_fleet report: the expected device count, every device
    completed, and group roll-ups that agree with it."""
    if not isinstance(doc, dict):
        return ["fleet report is not an object"]
    problems = []
    devices = doc.get("devices")
    if devices != expect_devices:
        problems.append(f"{devices} devices, expected {expect_devices}")
    outcomes = doc.get("outcomes", {})
    if outcomes != {"completed": devices}:
        problems.append(f"not every device completed: {outcomes}")
    groups = doc.get("groups", [])
    if sum(g.get("devices", 0) for g in groups) != devices:
        problems.append("group device counts do not sum to the fleet size")
    for g in groups:
        if g.get("completed") != g.get("devices"):
            problems.append(
                f"group {g.get('scenario')}/{g.get('harvester')}/"
                f"{g.get('backend')}: {g.get('completed')}/{g.get('devices')} completed")
    return problems


def campaign_fingerprint(doc):
    rows = [doc["baseline"]] + doc["runs"]
    outcomes = {}
    for r in rows:
        outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
    digests = hashlib.sha256("\n".join(r["digest"] for r in rows).encode())
    return {
        "runs": doc["total_runs"],
        "coverage": doc["coverage"],
        "power_failures": sum(r["power_failures"] for r in rows),
        "site_hits": sum(sum(r["hits"]) for r in rows),
        "outcomes": outcomes,
        # Every run's trace digest covers its simulated timestamps,
        # energy accounting events and monitor verdicts.
        "trace_digests_sha256": digests.hexdigest(),
    }


def fleet_fingerprint(doc):
    groups = doc["groups"]
    return {
        "devices": doc["devices"],
        "outcomes": doc["outcomes"],
        "verdicts": doc["verdicts"],
        "power_failures": sum(g["powerFailures"] for g in groups),
        "energy_uj": round(sum(g["energyUj"] for g in groups), 3),
        "energy_percentiles_uj": doc["energyPercentilesUj"],
    }
