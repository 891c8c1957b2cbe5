#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--trace 0` runs the end-to-end command (`perfbench`), `--trace 1` the
traced run (`perfbench_trace`); each is built on its own, so one still
builds when the other does not. Cargo output goes to stderr; the last
line of stdout is the benchmark's JSON result. Build output lands in
`$CARGO_TARGET_DIR` (default `.bench_build`); daemon state (removed
after the run) and the traced run's span files go to `.bench_state`.
"""

import argparse
import ctypes
import fcntl
import os
import struct
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Run the benchmark without address-space randomization (what
    `setarch -R` does). Microsecond timings such as the offline set-up
    moved between about 15 and 40 µs from one process to the next with
    it on; with it off they repeat."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def spread_subdirectories(path):
    """Mark `path` as a top of a directory hierarchy (`chattr +T`), so
    ext4 places each new subdirectory in a block group with free inodes.
    Without it, every file the daemon creates can scan for a free inode,
    and create cost swings tenfold with how full the groups near the
    checkout are. Filesystems without the flag keep their own policy."""
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = struct.unpack("i", fcntl.ioctl(fd, FS_IOC_GETFLAGS, struct.pack("i", 0)))[0]
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, struct.pack("i", flags | FS_TOPDIR_FL))
    except OSError:
        pass
    finally:
        os.close(fd)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        sys.exit("perfbench: the repository's crates are missing; nothing to build")
    binary = "perfbench_trace" if args.trace else "perfbench"
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", binary],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: building {binary} failed")

    out = os.path.join(ROOT, ".bench_state")
    state = os.path.join(out, f"{args.workload}-{os.getpid()}")
    os.makedirs(state, exist_ok=True)
    spread_subdirectories(state)
    command = [
        os.path.join(os.path.abspath(target), "release", binary),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--state-dir", state, "--size", args.size,
    ]
    if args.trace:
        command += ["--spans", os.path.join(out, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, preexec_fn=fixed_layout)
    finally:
        shutil.rmtree(state, ignore_errors=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
