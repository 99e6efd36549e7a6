"""Run one foelner CLI invocation in-process under cProfile and summarise it by module.

Usage: python3 bench/trace_job.py SUMMARY.json CLI-ARGS...

The payload goes to stdout exactly as the CLI writes it.  SUMMARY.json gets,
for the profiled call of `foelner.cli.main` only:

* `self_s`: self time per module of `src/foelner` (the dataclass-generated
  methods of a module's types count for that module), and `external` for all
  other code: numpy, builtins and the standard library;
* `funcs`: inclusive time and call count of each tracked public function
  (zero when the function does not exist);
* `hash_calls`: calls to any dataclass-generated `__hash__` of the package;
* `random_frame_gs_calls`: calls from `connes.random_frame` to `gram_schmidt`.

Nothing in `src/` is instrumented; every figure is the profiler's view of
the calls into each module.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import json
import sys

LAYERS = ("words", "boundary", "l2ops", "connes", "paradox", "cli")
TRACKED = {
    "words": ("ball", "multiply"),
    "boundary": ("ball_family_ratios", "local_search_min_ratio", "exhaustive_min_ratio", "interior_boundary"),
    "l2ops": ("commutator_ratio", "compress", "apply", "inner_product", "gram_schmidt", "svd_small"),
    "connes": ("anneal_projection", "witness_certificate", "random_frame"),
    "paradox": ("chain_audit", "c_value", "verify_set_identities"),
    "cli": ("render_json",),
}


def _code(module, name: str):
    fn = getattr(module, name, None)
    return None if fn is None else inspect.unwrap(fn).__code__


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    mods = {name: importlib.import_module(f"foelner.{name}") for name in LAYERS}
    layer_of_file = {m.__file__: name for name, m in mods.items()}
    generated: dict[int, str] = {}  # id(code) -> layer, for methods compiled from '<string>'
    hash_codes: set[int] = set()
    for name, m in mods.items():
        for cls in vars(m).values():
            if isinstance(cls, type) and cls.__module__ == m.__name__:
                for attr in vars(cls).values():
                    code = getattr(attr, "__code__", None)
                    if code is not None and code.co_filename == "<string>":
                        generated[id(code)] = name
                        if code.co_name == "__hash__":
                            hash_codes.add(id(code))
    tracked = {}
    for name, fns in TRACKED.items():
        for fn in fns:
            code = _code(mods[name], fn)
            if code is not None:
                tracked[id(code)] = f"{name}.{fn}"
    gram_schmidt = _code(mods["l2ops"], "gram_schmidt")

    prof = cProfile.Profile()
    prof.enable()
    try:
        rc = mods["cli"].main(argv)
    finally:
        prof.disable()
        sys.stdout.flush()

    self_s = dict.fromkeys((*LAYERS, "external"), 0.0)
    funcs = {f"{name}.{fn}": [0.0, 0] for name, fns in TRACKED.items() for fn in fns}
    hash_calls = 0
    gs_calls = 0
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str):
            if "_lsprof.Profiler" not in code:
                self_s["external"] += entry.inlinetime
            continue
        layer = generated.get(id(code)) or layer_of_file.get(code.co_filename, "external")
        self_s[layer] += entry.inlinetime
        if id(code) in hash_codes:
            hash_calls += entry.callcount
        key = tracked.get(id(code))
        if key is not None:
            funcs[key] = [entry.totaltime, entry.callcount]
            if key == "connes.random_frame":
                gs_calls = sum(sub.callcount for sub in entry.calls or () if sub.code is gram_schmidt)
    with open(summary_path, "w") as fh:
        json.dump(
            {"self_s": self_s, "funcs": funcs, "hash_calls": hash_calls, "random_frame_gs_calls": gs_calls}, fh
        )
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
