"""``repro profile`` reports the garbage collector next to the cache
statistics: cProfile charges collections to whichever function
allocated when one started, so the profile table alone misplaces
collector time."""

import re

from repro.cli import main


def test_profile_prints_collector_line(capsys):
    argv = ["profile", "--domains", "4", "--filler", "40", "--limit", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    match = re.search(
        r"^Garbage collector: (\d+) gen0, (\d+) gen1, (\d+) gen2 "
        r"collections in (\d+\.\d{3}) s$",
        out,
        re.MULTILINE,
    )
    assert match is not None, out[-600:]
    assert int(match.group(1)) > 0
    # The line follows the cache statistics.
    assert out.index("Hot-path caches:") < match.start()


def test_profile_prints_setup_collector_line(capsys):
    """The workload and universe build run with the collector paused:
    each paused build is followed by at most one pass, at the first
    allocation after it (without the pauses this set-up starts about
    thirty)."""
    argv = ["profile", "--domains", "4", "--filler", "5000", "--limit", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    setup = re.search(
        r"^Garbage collector in set-up: (\d+) gen0, (\d+) gen1, (\d+) gen2 "
        r"collections in (\d+\.\d{3}) s$",
        out,
        re.MULTILINE,
    )
    assert setup is not None, out[-600:]
    assert sum(int(setup.group(g)) for g in (1, 2, 3)) <= 3
    # Ahead of the whole-cell line.
    whole = out.index("Garbage collector: ")
    assert out.index("Hot-path caches:") < setup.start() < whole


def test_profile_prints_what_the_dropped_cell_leaves(capsys):
    """A walked world holds no reference cycle: once the profiled
    cell's universe, experiment and result are dropped, a collection
    finds nothing unreachable."""
    argv = ["profile", "--domains", "60", "--filler", "400", "--limit", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    match = re.search(
        r"^Garbage collector after dropping the cell: (\d+) unreachable "
        r"objects$",
        out,
        re.MULTILINE,
    )
    assert match is not None, out[-600:]
    assert int(match.group(1)) == 0
    # The last of the three collector lines.
    assert out.index("Garbage collector: ") < match.start()
