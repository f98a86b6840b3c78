#!/usr/bin/env python3
"""Statistical PC sampler for hosts without `perf` or a PMU (x86-64 Linux).

Runs a command and, every millisecond, stops its main thread with ptrace
(PTRACE_SEIZE once, then PTRACE_INTERRUPT / PTRACE_GETREGS / PTRACE_CONT)
and records the instruction pointer. When the command exits the samples
are folded into the functions of its binary (`/proc/<pid>/exe`) with
`nm -S`. Only the thread-group leader is sampled; threads it spawns run
untraced. A sample outside the binary's symbols is folded by the mapping
that holds it, named as `/proc/<pid>/maps` names it: `[vdso]` (where a
clock read runs), `[libc.so.6]` (a futex wait, a memcpy), `[heap]`, the
binary's own unsymbolled code as `[bench, no symbol]`. The mappings are
read while the command is stopped at a sample, whenever a sample falls
outside the ones known so far: an exited process has none left.

A sample in a shared library is folded by the library's dynamic symbol
(`nm -D -S` on the file, the address taken from the start of the
library's offset-0 mapping): `[libc.so.6] syscall`. Such a sample also
reads the word at `rsp` while the command is stopped. In a leaf (a
`syscall`, a `memcpy`) that word is the return address, so each library
line is followed by the functions that hold it, labelled as a leaf's
return address: a futex wait then names the code that parked the thread.
In a function that has pushed a frame the word is something else and
seldom lands in a function.

    analysis/pcsample.py [--top N] [--offsets K] [--lines SUBSTR] -- <command> [args...]

--top: how many functions to print (default 25). --offsets K: the K
hottest offsets inside each printed function, with the address to hand
to `objdump -d --start-address`. The exit status is the command's (128 +
the signal number if a signal killed it), or 1 if the command is still
running and cannot be attached to (ptrace not permitted, say).

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

PTRACE_PEEKDATA = 2
PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000
INTERVAL_S = 0.001
# How long a live process may take to map its binary before attaching fails.
ATTACH_S = 2.0
# Indices of `rip` and `rsp` in x86-64 `struct user_regs_struct` (27 words).
RIP = 16
RSP = 19

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(request, pid, addr=None, data=None):
    if libc.ptrace(request, pid, addr, data) == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({request:#x}, {pid}): {os.strerror(err)}")


def peek(pid, addr):
    """The word at `addr` in the stopped `pid`, or None if it cannot be read."""
    ctypes.set_errno(0)
    word = libc.ptrace(PTRACE_PEEKDATA, pid, addr, None)
    if word == -1 and ctypes.get_errno() != 0:
        return None
    return word & 0xFFFF_FFFF_FFFF_FFFF


class Mappings:
    """The address ranges of a live process, each with the name of what backs it."""

    def __init__(self, pid):
        self.pid = pid
        self.by_start = {}  # start -> (end, name, backing file or None)
        self.starts = []
        self.bases = {}  # backing file -> start of its offset-0 mapping

    def note(self, addr):
        """Rereads the maps if `addr` lies outside every range known; call while the process lives."""
        if self.name(addr) is not None:
            return
        try:
            with open(f"/proc/{self.pid}/maps") as maps:
                for line in maps:
                    fields = line.split(maxsplit=5)
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    backing = fields[5].strip() if len(fields) == 6 else "[anonymous]"
                    path = None if backing.startswith("[") else backing
                    name = f"[{os.path.basename(path)}]" if path else backing
                    self.by_start[start] = (end, name, path)
                    if path and int(fields[2], 16) == 0:
                        self.bases[path] = min(start, self.bases.get(path, start))
        except OSError:
            return  # exiting: the sample folds as unmapped
        self.starts = sorted(self.by_start)

    def name(self, addr):
        """`[name]` of the mapping that held `addr` (None if no known one did)."""
        found = self.mapping(addr)
        return found[1] if found else None

    def mapping(self, addr):
        """(end, name, backing file or None) of the mapping that held `addr`."""
        i = bisect.bisect_right(self.starts, addr) - 1
        if i < 0:
            return None
        found = self.by_start[self.starts[i]]
        return found if addr < found[0] else None


def sample(pid, exe, rips, stacks, maps):
    """Appends `pid`'s rip to `rips` every interval until it exits; returns its wait status.

    A sample outside `exe` also records the word at its `rsp` in
    `stacks[rip]`."""
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
        rip = regs[RIP]
        rips.append(rip)
        maps.note(rip)
        held = maps.mapping(rip)
        if held and held[2] and held[2] != exe:
            word = peek(pid, regs[RSP])
            if word is not None:
                stacks[rip].append(word)
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
    # Not mapped yet (the exec is still loading it), or no longer (an
    # exited process, a zombie, has no mappings left).
    raise ProcessLookupError(f"{exe} is not mapped in process {pid}")


def attach(child):
    """Seizes `child` once its binary is mapped; returns (exe, load bias).

    `Popen` returns at execve's close-on-exec point, before the new
    binary's segments are mapped, so its maps are re-read for up to
    ATTACH_S while it lives. None if it exits first; OSError if it lives
    and still cannot be attached."""
    pid = child.pid
    give_up = time.monotonic() + ATTACH_S
    while True:
        try:
            exe = os.readlink(f"/proc/{pid}/exe")
            bias = load_bias(pid, exe)
            ptrace(PTRACE_SEIZE, pid)
            return exe, bias
        except OSError:
            if child.poll() is not None:
                return None
            if time.monotonic() > give_up:
                raise
            time.sleep(INTERVAL_S / 10)


class Symbols:
    """Sorted (start, size, name) of a file's sized text symbols, by `nm -S`
    (`dynamic`: its dynamic symbols, `nm -D`, all a stripped library has)."""

    def __init__(self, path, dynamic=False):
        flags = ["-D"] if dynamic else []
        run = subprocess.run(
            ["nm", *flags, "-S", "-C", "--defined-only", path],
            capture_output=True,
            text=True,
            check=not dynamic,
        )
        syms = []
        for line in run.stdout.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and parts[2] in "tTwWiI":
                # `name@@VERSION` of a versioned dynamic symbol: the name.
                syms.append((int(parts[0], 16), int(parts[1], 16), parts[3].split("@")[0]))
        syms.sort()
        self.syms = syms
        self.starts = [s[0] for s in syms]

    def find(self, a):
        """(start, name) of the symbol holding the file address `a`, or None."""
        i = bisect.bisect_right(self.starts, a) - 1
        if i >= 0 and a < self.syms[i][0] + self.syms[i][1]:
            return self.syms[i][0], self.syms[i][2]
        return None


def fold(rips, stacks, bias, syms, maps, exe):
    """Counts runtime addresses by the binary's function, else by a
    library's dynamic symbol, else by mapping; and, per library line, the
    functions holding the word at `rsp` (a leaf's return address)."""
    by_fn = collections.Counter()
    offsets = collections.defaultdict(collections.Counter)
    returns = collections.defaultdict(collections.Counter)
    libs = {}

    def lib_symbol(addr):
        held = maps.mapping(addr)
        if not held or not held[2] or held[2] == exe or held[2] not in maps.bases:
            return None
        path = held[2]
        if path not in libs:
            libs[path] = Symbols(path, dynamic=True)
        found = libs[path].find(addr - maps.bases[path])
        return f"{held[1]} {found[1]}" if found else None

    def holder(addr):
        found = syms.find(addr - bias)
        return found[1] if found else lib_symbol(addr)

    for rip in rips:
        found = syms.find(rip - bias)
        if found:
            by_fn[found[1]] += 1
            offsets[found[1]][(rip - bias - found[0], rip - bias)] += 1
            continue
        name = lib_symbol(rip) or maps.name(rip) or "[unmapped]"
        if name == f"[{os.path.basename(exe)}]":
            name = f"[{os.path.basename(exe)}, no symbol]"
        by_fn[name] += 1
    for rip, words in stacks.items():
        name = lib_symbol(rip) or maps.name(rip)
        for word in words:
            caller = holder(word)
            if caller:
                returns[name][caller] += 1
    return by_fn, offsets, returns


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

    # Symbols are read after the run: `nm` needs only the file, and the
    # run's start is sampled.
    child = subprocess.Popen(command)
    pid = child.pid
    try:
        attached = attach(child)
    except OSError as e:
        child.kill()
        child.wait()
        print(f"pcsample: could not attach to {command[0]} (pid {pid}): {e}", file=sys.stderr)
        sys.exit(1)
    if attached is None:
        print(f"pcsample: {command[0]} exited before it could be sampled", file=sys.stderr)
        sys.exit(exit_code(child.returncode))
    exe, bias = attached
    rips, stacks, maps = [], collections.defaultdict(list), Mappings(pid)
    try:
        code = exit_code(os.waitstatus_to_exitcode(sample(pid, exe, rips, stacks, maps)))
    except KeyboardInterrupt:
        os.kill(pid, signal.SIGINT)
        code = 128 + signal.SIGINT
    by_fn, offsets, returns = fold(rips, stacks, bias, Symbols(exe), maps, exe)
    total = sum(by_fn.values())
    print(f"pcsample: {total} samples of pid {pid} ({exe}), bias {bias:#x}")
    for name, n in by_fn.most_common(args.top):
        print(f"{100.0 * n / total:6.2f} % {n:8d}  {name}")
        for (off, addr), k in offsets[name].most_common(args.offsets):
            print(f"{'':17}+{off:#06x} at {addr:#x}: {k} ({100.0 * k / n:.1f} % of the function)")
        for caller, k in returns[name].most_common(max(args.offsets, 3)):
            print(f"{'':17}leaf's return address in {caller}: {k} ({100.0 * k / n:.1f} %)")
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
