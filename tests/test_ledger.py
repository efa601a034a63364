from value_ledger import LEDGER, RTOL, SCALE_RTOL, compare, summary


def test_value_ledger():
    # every value, warning and refusal of the ledger's problems, at RTOL
    # (optimal scales at SCALE_RTOL); run with -s to see how many are
    # bit-identical
    mismatches, counts = compare(LEDGER)
    print(summary(counts))
    assert counts["problems"] >= 300
    assert not mismatches, f"{len(mismatches)} moves beyond rtol {RTOL:g} / {SCALE_RTOL:g}:\n" + "\n".join(
        mismatches[:20]
    )
