#!/usr/bin/env python3
"""Fails when a src/ library function is reached by no shipped binary.

Builds the tree (without tests) and perfbench at -O0 with
-ffunction-sections and links every binary with -Wl,--gc-sections, so a
function that no binary calls is dropped from all of them. It then compares
the global text symbols (`nm` type T) of the src/ static libraries with the
functions the shipped binaries keep: the tools, the benches, the examples
and perfbench. Names are compared demangled, so the constructor and
destructor variants of one function count as one function.

A bdisk:: function that no binary keeps fails the check unless ALLOWLIST
names it, with the reason it stays. Tests are not shipped binaries: a
function only tests call is dead weight in src/ (move it into tests/ or
delete it).

The method has a blind spot: a function defined inline in a header is
emitted only where it is used, never as a library T symbol, so unreached
header inlines escape it.

Usage (from the repository root; needs cmake, a C++ compiler and nm):

  python3 tools/check_reachability.py [--build-dir DIR] [--jobs N]

The build directory defaults to build-reach/ and is reused between runs.
Exits 0 when every function is reached or allowlisted, 1 otherwise.
"""

import argparse
import os
import subprocess
import sys

# Demangled function name -> why it stays although no shipped binary
# reaches it.
ALLOWLIST = {
    "bdisk::broadcast::BroadcastProgram::ToString[abi:cxx11]() const":
        "GoldenTest.Figure1ProgramText pins the paper's Figure 1 program "
        "through it, and the golden pins stay as they are",
    "bdisk::transport::DatagramServerTransport::FindPeerStats("
    "std::__cxx11::basic_string<char, std::char_traits<char>, "
    "std::allocator<char> > const&) const":
        "the transport tests read a peer's epoch counters mid-session (a "
        "reconnect resets slots_tx_epoch); STATS, the tools' view, is sent "
        "only at BYE, which ends the session",
    "bdisk::obs::WindowedCollector::Windows() const":
        "the one reader of whole WindowStats; the window.* series and the "
        "bus's window frames drop the submit-outcome counts and response "
        "moments that the collector's tests check",
}

FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd):
    print("+ " + " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def text_symbols(path, kinds):
    """Demangled names of the defined symbols of `path` whose nm type is
    in `kinds`."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in kinds:
            names.add(parts[2])
    return names


def is_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build-reach")
    parser.add_argument("--jobs", default="3")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tree = os.path.abspath(args.build_dir)
    bench = os.path.join(tree, "perfbench")

    run(["cmake", "-S", root, "-B", tree, "-DBDISK_BUILD_TESTS=OFF"] + FLAGS)
    run(["cmake", "--build", tree, "-j", args.jobs])
    run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", bench] + FLAGS)
    run(["cmake", "--build", bench, "-j", args.jobs])

    defined = set()
    for dirpath, _, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            if name.startswith("libbdisk_") and name.endswith(".a"):
                defined |= text_symbols(os.path.join(dirpath, name), "T")
    binaries = []
    for sub in ("tools", "bench", "examples"):
        directory = os.path.join(tree, sub)
        binaries += [os.path.join(directory, n)
                     for n in sorted(os.listdir(directory))
                     if is_executable(os.path.join(directory, n))]
    binaries.append(os.path.join(bench, "bdisk_perfbench"))
    kept = set()
    for binary in binaries:
        kept |= text_symbols(binary, "TtWw")

    unreached = sorted(n for n in defined - kept if n.startswith("bdisk::"))
    stale = sorted(n for n in ALLOWLIST if n not in defined - kept)
    print(f"{len(defined)} library functions, {len(binaries)} binaries, "
          f"{len(unreached)} unreached")
    failed = False
    for name in unreached:
        if name in ALLOWLIST:
            print(f"  allowed: {name} ({ALLOWLIST[name]})")
        else:
            print(f"  UNREACHED: {name}")
            failed = True
    for name in stale:
        print(f"  STALE ALLOWLIST ENTRY (reached or gone): {name}")
        failed = True
    if failed:
        print("No shipped binary reaches the functions above: delete them, "
              "move them into tests/, or allowlist them with a reason.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
