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
