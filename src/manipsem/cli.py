"""Command-line interface.

Subcommands: relations, describe, bench, parse, generate, corpus.  Each
command takes only the flags it reads, after its name: --config and --set
on relations, describe, bench and generate (MANIPSEM_CONFIG names a config
file when --config is absent), --format on relations, describe, bench and
parse, and --seed on generate and corpus.  corpus writes into a new or
trace-free directory only: bench scores every ``.jsonl`` in it.  Data goes
to stdout, diagnostics to stderr.  Exit codes: 2 usage error (a flag the
command does not read, an unknown scenario, a generate --noise that is not
a finite number >= 0 or --points-per-edge below 2, corpus --count below 1, a
corpus directory that already holds ``.jsonl`` traces, a corpus path or
bench --out-dir that exists and is not a directory, or a generate --out or
--gt-out that cannot be written; corpus and bench refuse before any work,
and corpus writes nothing), trace parse error or an unreadable or
undecodable input file (trace, token file, or a corpus's ``.gt.json``),
3 schema or monotonicity error (also a malformed ``.gt.json`` relation),
4 unavailable description level, 5 missing, empty or unlabeled corpus,
6 token string rejected, 7 bad configuration (unknown key, bad value,
unreadable or malformed file, including the library and template files
and a template they lack).  A reader that closes stdout early (``| head``)
ends the command quietly with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench as bench_mod
from . import events, grammar, synth
from .config import RunConfig, load_run_config
from .library import LibraryError, default_library, load_mapping_library
from .pipeline import analyze_trace, describe_document, describe_hand
from .realizer import LevelUnavailable, MissingTemplate, default_templates, load_template_set
from .relations import classify_dsr, classify_ssr

EXIT_PARSE = 2
EXIT_USAGE = 2
EXIT_SCHEMA = 3
EXIT_LEVEL = 4
EXIT_EMPTY_CORPUS = 5
EXIT_NOPARSE = 6
EXIT_CONFIG = 7


class ConfigError(Exception):
    pass


def _build_config(args) -> RunConfig:
    try:
        cfg = load_run_config(args.config)
        overrides = {}
        for item in args.set or []:
            if "=" not in item:
                raise ValueError(f"--set expects key=value, got {item!r}")
            key, _, value = item.partition("=")
            overrides[key.strip()] = value.strip()
        if overrides:
            cfg = cfg.with_overrides(**overrides)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _resources(cfg: RunConfig):
    try:
        lib = load_mapping_library(cfg.library_path) if cfg.library_path else default_library()
    except (LibraryError, ValueError, OSError) as exc:
        raise ConfigError(f"library_path: {exc}") from exc
    try:
        ts = load_template_set(cfg.template_path) if cfg.template_path else default_templates()
    except (ValueError, OSError) as exc:
        raise ConfigError(f"template_path: {exc}") from exc
    return lib, ts


def _not_a_directory(path) -> bool:
    """Whether ``path`` exists and is not a directory, said on stderr: a
    command that writes into ``path`` refuses it before any work."""
    if os.path.exists(path) and not os.path.isdir(path):
        print(f"not a directory: {path}", file=sys.stderr)
        return True
    return False


def cmd_relations(args) -> int:
    cfg = _build_config(args)
    trace = events.load_trace(args.trace)
    cache = events.GeometryCache(trace.frames, cfg)
    window = cfg.relation.window
    rows = []
    for f_idx in range(len(trace.frames)):
        contacts = cache.contacts(f_idx)
        ids = cache.ids[f_idx]
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                touching = frozenset((a, b)) in contacts
                sa, sb = cache.state(a, f_idx), cache.state(b, f_idx)
                ssr_ab = classify_ssr(sa, sb, cfg.relation, cfg.geometry, touching=touching,
                                      memo=cache.pair(a, b, f_idx))
                ssr_ba = classify_ssr(sb, sa, cfg.relation, cfg.geometry, touching=touching,
                                      memo=cache.pair(b, a, f_idx))
                dsr = ""
                if f_idx + 1 > window:
                    # centroids of the frames f_idx - window .. f_idx each appears in
                    ta, tb = (cache.track(o, f_idx, cache.seen(o, f_idx)
                                          - cache.seen(o, f_idx - window - 1)) for o in (a, b))
                    if len(ta) == len(tb) and len(ta) >= 2:
                        near = cache.gap(a, b, f_idx) <= cfg.geometry.eps_touch
                        dsr = classify_dsr(ta, tb, near, cfg.relation).value
                rows.append((f_idx, a, b, ssr_ab.value, ssr_ba.value, dsr))
    if args.format == "records":
        for f, a, b, ab, ba, dsr in rows:
            print(json.dumps({"frame": f, "a": a, "b": b, "ssr_ab": ab,
                              "ssr_ba": ba, "dsr": dsr or None}))
    else:
        print("frame\ta\tb\tssr(a,b)\tssr(b,a)\tdsr")
        for row in rows:
            print("\t".join(str(v) for v in row))
    return 0


def cmd_describe(args) -> int:
    cfg = _build_config(args)
    lib, ts = _resources(cfg)
    trace = events.load_trace(args.trace)
    analysis = analyze_trace(trace, cfg, lib, ts)
    hands = ("left", "right") if args.hand == "both" else (args.hand,)
    # build everything before printing: an unavailable level leaves stdout empty
    if args.format == "records":
        lines = [json.dumps({"hand": hand, "level": k, "frames": [lo, hi], "sentence": text})
                 for hand in hands
                 for k, desc in describe_hand(analysis, hand, args.level)
                 for text, (lo, hi) in desc.sentences]
    else:
        lines = [describe_document(analysis, hands, args.level)]
    for line in lines:
        print(line)
    return 0


def cmd_bench(args) -> int:
    cfg = _build_config(args)
    try:
        corpus = bench_mod.load_corpus_dir(args.corpus)
    except (FileNotFoundError, NotADirectoryError):
        print(f"corpus directory not found: {args.corpus}", file=sys.stderr)
        return EXIT_EMPTY_CORPUS
    if not corpus:
        print("corpus directory holds no traces", file=sys.stderr)
        return EXIT_EMPTY_CORPUS
    out_dir = args.out_dir or args.corpus
    if _not_a_directory(out_dir):
        return EXIT_USAGE
    report = bench_mod.compare_models(corpus, cfg)
    if not report.total:
        print("corpus holds no labeled relations", file=sys.stderr)
        return EXIT_EMPTY_CORPUS
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "bench_report.tsv"), "w", encoding="utf-8") as fh:
        fh.write(report.to_table())
    with open(os.path.join(out_dir, "bench_report.records"), "w", encoding="utf-8") as fh:
        fh.write(report.to_records())
    if args.format == "records":
        sys.stdout.write(report.to_records())
    else:
        sys.stdout.write(report.to_table())
    print(f"reports written to {out_dir}", file=sys.stderr)
    return 0


def cmd_parse(args) -> int:
    try:
        with open(args.tokens, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        print(f"token file error: cannot read {args.tokens}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        print(f"token file error: {args.tokens}: not UTF-8: {exc.reason}", file=sys.stderr)
        return EXIT_PARSE
    try:
        tree = grammar.parse(tokens)
    except grammar.NoParse as exc:
        print(f"no parse: furthest progress at token offset {exc.position}",
              file=sys.stderr)
        return EXIT_NOPARSE
    if args.format == "records":
        def walk(node):
            if node.is_leaf:
                return {"token": node.token}
            return {"symbol": node.symbol, "children": [walk(c) for c in node.children]}
        print(json.dumps(walk(tree)))
    else:
        print(tree.render())
    return 0


def cmd_generate(args) -> int:
    cfg = _build_config(args)
    spec = synth.ScenarioSpec(args.scenario, seed=args.seed, noise=args.noise,
                              frames=args.frames,
                              points_per_edge=args.points_per_edge)
    gen = synth.generate_synthetic_trace(spec, cfg=cfg)
    try:
        if args.out:
            events.dump_trace(gen.trace, args.out)
        if args.gt_out:
            bench_mod.write_ground_truth(args.gt_out, gen.relations, indent=1, name=gen.name,
                                         hand=gen.hand, bindings=gen.bindings,
                                         actions=[str(a) for a in gen.actions])
    except OSError as exc:
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        print(f"trace written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(events.dumps_trace(gen.trace))
    return 0


def cmd_corpus(args) -> int:
    if args.count < 1:
        print(f"corpus: --count must be at least 1, got {args.count}", file=sys.stderr)
        return EXIT_USAGE
    if _not_a_directory(args.directory):
        return EXIT_USAGE
    # bench reads every .jsonl in the directory, so old scenes would be scored too
    if os.path.isdir(args.directory) and any(
            name.endswith(".jsonl") for name in os.listdir(args.directory)):
        print(f"corpus directory already holds traces: {args.directory}", file=sys.stderr)
        return EXIT_USAGE
    items = synth.make_corpus(args.count, seed=args.seed)
    for k, (trace, rels) in enumerate(items):
        bench_mod.write_corpus_entry(args.directory, f"scene_{k:04d}", trace, rels)
    print(f"{len(items)} scenes written to {args.directory}", file=sys.stderr)
    return 0


def _config_flags(parser):
    parser.add_argument("--config",
                        help="config file (key = value); falls back to $MANIPSEM_CONFIG")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config value (repeatable)")


def _format_flag(parser):
    parser.add_argument("--format", choices=("text", "records"), default="text",
                        help="output format: human text or one record per line")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="manipsem",
                                description="Spatial-relation semantics and "
                                            "descriptions for manipulation traces")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("relations", help="per-frame spatial relation table")
    sp.add_argument("trace")
    _config_flags(sp)
    _format_flag(sp)
    sp.set_defaults(func=cmd_relations)

    sp = sub.add_parser("describe", help="multi-granularity descriptions")
    sp.add_argument("trace")
    sp.add_argument("--level", type=int, help="one granularity level (default: every level)")
    sp.add_argument("--hand", choices=("left", "right", "both"), default="both")
    _config_flags(sp)
    _format_flag(sp)
    sp.set_defaults(func=cmd_describe)

    sp = sub.add_parser("bench", help="hull-vs-box accuracy on a labeled corpus")
    sp.add_argument("corpus")
    sp.add_argument("--out-dir")
    _config_flags(sp)
    _format_flag(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("parse", help="parse an action token file")
    sp.add_argument("tokens")
    _format_flag(sp)
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("generate", help="generate one synthetic scenario trace")
    sp.add_argument("scenario", nargs="?", default="Screw")
    sp.add_argument("--seed", type=int, default=0, help="generator seed")
    sp.add_argument("--noise", type=float, default=0.0)
    sp.add_argument("--frames", type=int)
    sp.add_argument("--points-per-edge", type=int, default=3)
    sp.add_argument("--out")
    sp.add_argument("--gt-out")
    _config_flags(sp)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("corpus", help="write a static relation corpus for bench")
    sp.add_argument("directory")
    sp.add_argument("--count", type=int, default=500, help="number of scenes")
    sp.add_argument("--seed", type=int, default=0, help="generator seed")
    sp.set_defaults(func=cmd_corpus)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): stop quietly, and point
        # stdout at devnull so that the interpreter's flush at exit does
        # not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except events.ParseError as exc:
        print(f"trace parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (events.SchemaError, events.MonotonicityError) as exc:
        print(f"trace schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except LevelUnavailable as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_LEVEL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingTemplate as exc:
        print(f"config error: missing template {exc.args[0]}", file=sys.stderr)
        return EXIT_CONFIG
    except synth.UnknownScenario as exc:
        print(f"unknown scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except synth.InvalidSpec as exc:
        field, reason = exc.args
        print(f"generate: --{field.replace('_', '-')} {reason}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
