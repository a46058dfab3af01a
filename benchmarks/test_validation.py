"""The full headline-target validation sweep."""

from repro.perf.validation import format_validation_report, validate


def test_validation_sweep():
    rows = validate()
    print()
    print(format_validation_report(rows))
    assert all(row.in_band for row in rows)
