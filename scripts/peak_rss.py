#!/usr/bin/env python3
"""Run one command and report its wall time and peak resident set.

    python3 scripts/peak_rss.py [--max-mib N] -- CMD [ARG ...]

The command's stdout is discarded and its stderr passed through. The
peak RSS is the child's ru_maxrss from getrusage(RUSAGE_CHILDREN), read
after the only child this process starts has exited. Prints one line,
`peak_rss_mib=<MiB> wall_s=<s> exit=<code> :: <command>`, and exits
non-zero if the command failed or, with --max-mib, if its peak RSS
exceeds the bound.
"""

import argparse
import resource
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-mib", type=float, default=None,
                    help="fail when the peak RSS exceeds this many MiB")
    ap.add_argument("cmd", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("missing command")

    t0 = time.monotonic()
    rc = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    wall = time.monotonic() - t0
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak_rss_mib={peak:.1f} wall_s={wall:.2f} exit={rc} :: "
          + " ".join(cmd))
    if rc != 0:
        return 1
    if args.max_mib is not None and peak > args.max_mib:
        print(f"peak RSS {peak:.1f} MiB exceeds the bound of "
              f"{args.max_mib:g} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
