"""Fixture: raw writes into sequence-stamped state (6 findings).

Flagged anywhere in ``src/`` except the owning module: frame-table
columns belong to ``repro/kernel/page.py``, ``PageTable._entries`` to
``repro/kernel/pagetable.py``.
"""


def boot_reserved(pagemap, frame):
    pagemap.table.counts[frame] = 1                  # <- finding
    pagemap.table.flags[frame] |= 4                  # <- finding (aug-assign)


def leak(table, frame, pid, vpn):
    table.pin_counts[frame] += 1                     # <- finding
    table.tags[frame] = "orphan"                     # <- finding
    table.mappings[frame] = (pid, vpn)               # <- finding


def drop_entry(task, vpn):
    del task.page_table._entries[vpn]                # <- finding
