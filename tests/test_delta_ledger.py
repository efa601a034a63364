from delta_ledger import RTOL, compare, summary


def test_delta_ledger():
    # every recorded <delta> estimate at RTOL, and each probe's exit code and
    # verdict line exactly; run with -s to see how many are bit-identical
    mismatches, counts = compare()
    print(summary(counts))
    assert counts["values"] == 200 and counts["probes"] == 2
    assert not mismatches, f"{len(mismatches)} moves beyond rtol {RTOL:g}:\n" + "\n".join(mismatches[:20])
