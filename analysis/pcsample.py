#!/usr/bin/env python3
"""Statistical PC sampler for hosts without `perf` or a PMU (x86-64 Linux).

Runs a command and, every millisecond, stops its main thread with ptrace
(PTRACE_SEIZE once, then PTRACE_INTERRUPT / PTRACE_GETREGS / PTRACE_CONT)
and records the instruction pointer. When the command exits the samples
are folded into the functions of its binary (`/proc/<pid>/exe`) with
`nm -S`. Only the thread-group leader is sampled; threads it spawns run
untraced.

    analysis/pcsample.py [--top N] [--offsets K] [--lines SUBSTR] -- <command> [args...]

--top: how many functions to print (default 25). --offsets K: the K
hottest offsets inside each printed function, with the address to hand
to `objdump -d --start-address`. The exit status is the command's (128 +
the signal number if a signal killed it).

--lines SUBSTR: for every sampled function whose name contains SUBSTR,
also pass its sampled addresses through `addr2line -f -i -C` (binutils)
and fold the counts by source line and inlining chain. A function's flat
share hides what was inlined into it; each chain prints innermost first,
`file:line function`, then the lines it was inlined at, so a helper's
cost shows at the call site that paid it. Frames in the standard library
are dropped from a chain that has others, so an `Option::clone` or a
`Vec::push` counts at the line of this workspace that called it. Needs a
binary with line tables (both release profiles, the workspace's and
`benchmark/`'s, keep them).

Example, the keyed operator run of the repo benchmark:

    cargo build --release --manifest-path benchmark/Cargo.toml --bin bench
    analysis/pcsample.py --offsets 5 -- benchmark/target/release/bench \\
        --workload keyed_wide --seed 1 --seconds 5 --trace 0

and the lines of the store's batch query on `query_heavy`:

    analysis/pcsample.py --top 8 --lines query_time_batch -- \\
        benchmark/target/release/bench --workload query_heavy --seed 1 --seconds 5 --trace 0
"""

import argparse
import bisect
import collections
import ctypes
import os
import platform
import signal
import subprocess
import sys
import time

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000
INTERVAL_S = 0.001
# Index of `rip` in x86-64 `struct user_regs_struct` (27 words).
RIP = 16

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(request, pid, addr=None, data=None):
    if libc.ptrace(request, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({request:#x}, {pid}): {os.strerror(err)}")


def sample(pid, rips):
    """Appends `pid`'s rip to `rips` every interval until it exits; returns its wait status."""
    regs = (ctypes.c_ulong * 27)()
    while True:
        time.sleep(INTERVAL_S)
        try:
            ptrace(PTRACE_INTERRUPT, pid)
        except OSError:
            pass  # the process is exiting: waitpid reports it
        # Pass signals through until the interrupt's own stop arrives.
        while True:
            _, status = os.waitpid(pid, WALL)
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                return status
            if (status >> 16) == PTRACE_EVENT_STOP:
                break
            ptrace(PTRACE_CONT, pid, None, os.WSTOPSIG(status))
        ptrace(PTRACE_GETREGS, pid, None, ctypes.addressof(regs))
        rips.append(regs[RIP])
        ptrace(PTRACE_CONT, pid)


def load_bias(pid, exe):
    """What to subtract from a runtime address to get the ELF one."""
    with open(exe, "rb") as f:
        e_type = int.from_bytes(f.read(18)[16:18], "little")
    if e_type != 3:  # ET_EXEC: linked at its runtime addresses
        return 0
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) >= 6 and fields[5] == exe and int(fields[2], 16) == 0:
                return int(fields[0].split("-")[0], 16)
    # An exited process (a zombie) has no mappings left.
    raise ProcessLookupError(f"{exe} is not mapped in process {pid}")


def symbols(exe):
    """Sorted (start, size, name) of the binary's sized text symbols."""
    out = subprocess.run(
        ["nm", "-S", "-C", "--defined-only", exe], capture_output=True, text=True, check=True
    ).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in "tTwW":
            syms.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
    syms.sort()
    return syms


def fold(addrs, syms):
    starts = [s[0] for s in syms]
    by_fn = collections.Counter()
    offsets = collections.defaultdict(collections.Counter)
    for a in addrs:
        i = bisect.bisect_right(starts, a) - 1
        if i >= 0 and a < syms[i][0] + syms[i][1]:
            by_fn[syms[i][2]] += 1
            offsets[syms[i][2]][(a - syms[i][0], a)] += 1
        else:
            by_fn["[outside the binary's symbols]"] += 1
    return by_fn, offsets


def short_name(name):
    """`a::b::Type<T>::f<U>` as `Type::f`: everything in angle brackets
    (generic arguments, `<X as Trait>` qualifiers) dropped, the last two
    path segments kept."""
    flat, depth = [], 0
    for ch in name:
        depth += ch == "<"
        if depth == 0:
            flat.append(ch)
        depth -= ch == ">" and depth > 0
    segments = [s for s in "".join(flat).split("::") if s]
    return "::".join(segments[-2:]) or name


def short_path(path):
    """A source path from the repo root or the standard library's root."""
    for root in ("/crates/", "/shims/", "/benchmark/", "/library/"):
        if root in path:
            return path[path.index(root) + 1 :]
    return os.path.basename(path)


def source_lines(exe, counts):
    """Folds `{address: samples}` by inlining chain, innermost frame first."""
    addrs = sorted(counts)
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", exe],
        input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    # `-a` heads each address's frames with the address itself; each frame
    # is a function line and a `file:line` line.
    chains = collections.Counter()
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        addr = int(lines[i], 16)
        i += 1
        frames = []
        while i + 1 < len(lines) and not lines[i].startswith("0x"):
            where = lines[i + 1].split(" ")[0]
            file, _, line = where.rpartition(":")
            frames.append(f"{short_path(file)}:{line} {short_name(lines[i])}")
            i += 2
        own = [f for f in frames if not f.startswith("library/")]
        chains[tuple(own or frames)] += counts[addr]
    return chains


def exit_code(returncode):
    """A `Popen.returncode` (negative: killed by that signal) as a shell exit status."""
    return returncode if returncode >= 0 else 128 - returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--top", type=int, default=25)
    p.add_argument("--offsets", type=int, default=0)
    p.add_argument("--lines", metavar="SUBSTR")
    p.add_argument("command", nargs=argparse.REMAINDER)
    args = p.parse_args()
    if platform.machine() != "x86_64":
        raise SystemExit("pcsample: x86-64 only (it reads rip from user_regs_struct)")
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        raise SystemExit("pcsample: give the command to sample after --")

    # `Popen` returns once the command has been exec'd, so its binary is
    # mapped by the time the bias is read. Symbols are read after the run:
    # `nm` needs only the file, and the run's start is sampled.
    child = subprocess.Popen(command)
    pid = child.pid
    try:
        exe = os.readlink(f"/proc/{pid}/exe")
        bias = load_bias(pid, exe)
        ptrace(PTRACE_SEIZE, pid)
    except OSError:
        code = exit_code(child.wait())
        print(f"pcsample: {command[0]} exited before it could be sampled", file=sys.stderr)
        sys.exit(code)
    rips = []
    try:
        code = exit_code(os.waitstatus_to_exitcode(sample(pid, rips)))
    except KeyboardInterrupt:
        os.kill(pid, signal.SIGINT)
        code = 128 + signal.SIGINT
    by_fn, offsets = fold([r - bias for r in rips], symbols(exe))
    total = sum(by_fn.values())
    print(f"pcsample: {total} samples of pid {pid} ({exe}), bias {bias:#x}")
    for name, n in by_fn.most_common(args.top):
        print(f"{100.0 * n / total:6.2f} % {n:8d}  {name}")
        for (off, addr), k in offsets[name].most_common(args.offsets):
            print(f"{'':17}+{off:#06x} at {addr:#x}: {k} ({100.0 * k / n:.1f} % of the function)")
    if args.lines:
        for name, n in by_fn.most_common():
            if args.lines not in name:
                continue
            counts = collections.Counter()
            for (_, addr), k in offsets[name].items():
                counts[addr] += k
            print(f"\nlines of {name}: {n} samples ({100.0 * n / total:.2f} % of all)")
            for chain, k in source_lines(exe, counts).most_common(args.top):
                print(f"{100.0 * k / total:6.2f} % {k:8d}  {' <- '.join(chain)}")
    sys.exit(code)


if __name__ == "__main__":
    main()
