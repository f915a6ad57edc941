"""Run one sweep config in this process, once per variant, and print what
each run left behind as one JSON line: the files written (bytes as latin-1
text), the error raised, the forks tried, the children whose spools were
taken (a share's files and run records, or a helper's bases), and whether
a child outlived it.

    python tests/forked_sweep.py '<spec as JSON>'

The spec holds `kind` ("gue" or "spin"), `cfg` (ExperimentConfig fields
but kind and output_path), `out` (the output directory, emptied before
each run) and `variants`: "serial" pins the sweep to this process, and an
integer N makes the sweep see N usable cores, whatever its CPU affinity
or MAX_WORKERS, so that it forks on a host with fewer: with one core to
spare, a fixed-random sweep's large blocks fork a helper for their bases.
Optional: `block_elements` (BLOCK_ELEMENTS for every variant), `doctor`
(a list of [seed, "2I", "nan" or "raise"]: that seed's GUE draw becomes
2 * identity or all NaN, or a draw that holds it raises a QslError naming
the seed; a basis draws seed + BASIS_SEED_OFFSET) and `child` ("killed",
"failing", "truncated" or "unforked": each forked child dies by SIGKILL,
exits 1 before its work, or does its work, loses the last bytes of its
spool and exits 0; or each fork fails with EAGAIN).

BLAS is pinned to one thread before numpy is imported, so the process is
single-threaded and safe to fork.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import errno  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tqsl.ensembles as ensembles  # noqa: E402
import tqsl.experiments as ex  # noqa: E402

DOCTORED = {"2I": lambda dim: 2.0 * np.eye(dim), "nan": lambda dim: np.full((dim, dim), np.nan)}


def patch(spec: dict, variant) -> None:
    """Set the module state one variant runs under."""
    ex._cores = lambda: 1 if variant == "serial" else variant
    ex._fork = FORK if spec.get("child") in (None, "unforked") else failing_fork(spec["child"])


def failing_fork(how: str):
    def fork(payload, spool, children):
        def dying(spool):
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if how == "failing":
                raise RuntimeError("a failing child")
            payload(spool)
            spool.flush()
            os.ftruncate(spool.fileno(), os.fstat(spool.fileno()).st_size - 8)

        return FORK(dying, spool, children)

    return fork


def doctor(seed: int, kind: str) -> None:
    real = ex._gue_draws

    def doctored(dim, seeds):
        if kind == "raise" and seed in seeds:
            raise ex.QslError(f"doctored draw {seed}")
        h = np.array(real(dim, seeds))
        if kind != "raise":
            h[np.array(seeds) == seed] = DOCTORED[kind](dim)
        return h

    ex._gue_draws = doctored


def doctor_bases() -> None:
    """The fixed bases draw through the doctored draws too. They are drawn
    in ensembles._gue_eigenbases, which reads ensembles._gue_draws; the
    optimizer's restarts read it as well, and their seeds s + r overlap the
    sweep's, so the doctored draws stand in there only while a fixed-basis
    stack is drawn."""
    eigenbases = ex._gue_eigenbases

    def doctored_bases(dim, seeds):
        real, ensembles._gue_draws = ensembles._gue_draws, ex._gue_draws
        try:
            return eigenbases(dim, seeds)
        finally:
            ensembles._gue_draws = real

    ex._gue_eigenbases = doctored_bases


def run(spec: dict, variant) -> dict:
    out = Path(spec["out"])
    shutil.rmtree(out, ignore_errors=True)
    patch(spec, variant)
    forks, taken = [], []
    real_fork = os.fork

    def counting():
        forks.append(1)
        if spec.get("child") == "unforked":
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    def taking(spool, kind):
        got = TAKEN(spool, kind)
        taken.append(got is not None)
        return got

    os.fork, ex._taken = counting, taking
    cfg = ex.ExperimentConfig(kind=spec["kind"], output_path=str(out), **spec["cfg"])
    runner = ex.run_experiment_gue if spec["kind"] == "gue" else ex.run_experiment_spin
    error = None
    try:
        runner(cfg)
    except Exception as err:  # reported, and compared between variants
        error = [type(err).__name__, str(err)]
    finally:
        os.fork = real_fork
    try:
        os.waitpid(-1, os.WNOHANG)
        leftover = True
    except ChildProcessError:
        leftover = False
    files = {p.name: p.read_bytes().decode("latin-1") for p in sorted(out.iterdir())} if out.is_dir() else None
    return {"variant": variant, "files": files, "error": error, "forks": len(forks), "taken": sum(taken),
            "leftover": leftover}


FORK, TAKEN = ex._fork, ex._taken

if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    if spec.get("block_elements"):
        ex.BLOCK_ELEMENTS = spec["block_elements"]
    for seed, kind in spec.get("doctor", []):
        doctor(seed, kind)
    doctor_bases()
    print(json.dumps([run(spec, variant) for variant in spec["variants"]]))
