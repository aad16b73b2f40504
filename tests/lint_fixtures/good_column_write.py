"""Fixture: stamped state written through its mutators (0 findings)."""


def boot_reserved(pagemap, frame, reserved):
    pagemap.table.set_count(frame, 1)
    pagemap.table.set_flag_bits(frame, reserved)
    # Reads are fine; so are the columns no audit reads.
    ages = pagemap.table.ages
    ages[frame] = 0
    return pagemap.table.counts[frame]


class Histogram:
    def __init__(self, buckets):
        self.counts = [0] * (len(buckets) + 1)

    def observe(self, index):
        # An object's own container named like a column is not one.
        self.counts[index] += 1
