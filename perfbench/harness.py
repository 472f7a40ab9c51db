"""Workloads: the ops, their correctness checks, and the traced rebuild.

One caller, one thread, one operation at a time: the next input is sent
only when the previous result is back. An op is one record for the address
workloads and one CSV cell for csv_columns. Each workload's inputs form
GROUPS fixed groups; a visit to a group runs each of its ops once and
returns one dict of named timings per op (None for an op that failed).

The traced visit times calls into fpekit's public functions from outside
the package and rebuilds every ciphertext from them (rank_multi, then
Fe1Backend per slot under cipher's slot tweak, then unrank_multi). Each
rebuilt ciphertext must equal what cipher.encrypt returned, so the layer
split is known to decompose the real code path.
"""

from __future__ import annotations

import csv
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from fpekit import cipher, cli, dsl, formats, ranking, splitting
from fpekit.intfpe import Fe1Backend, IntFpeKey, WalkRecorder

import inputs

clock = time.perf_counter

GROUPS = 15
CSV_CHUNK_ROWS = 14
COLUMNS = inputs.CSV_HEADER[1:]
LAYERS = ("formats.ensure_valid", "cipher.format_fingerprint", "splitting.rank_multi",
          "intfpe", "splitting.unrank_multi")


def clear_caches() -> None:
    """Forget every functools cache in fpekit, so the next call runs cold."""
    for name, mod in list(sys.modules.items()):
        if name == "fpekit" or name.startswith("fpekit."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    n = len(sorted_values)
    return sorted_values[min(n - 1, max(0, int(-(-q * n // 1)) - 1))]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    first_error: str | None = None

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if self.first_error is None:
            self.first_error = what
            print(f"perfbench: op failed: {what}", file=sys.stderr)


def _run_op(tally: Tally, fn, *args):
    """Call fn; a raised error is counted as a failure and returns None."""
    try:
        return fn(*args)
    except Exception:  # the loop must go on; the traceback goes to stderr
        tally.fail(traceback.format_exc(limit=4))
        return None


# ---------------------------------------------------------------------------
# the traced rebuild of cipher.encrypt / cipher.decrypt


def slot_tweak(fingerprint: bytes, index: int, tweak: bytes) -> bytes:
    """The per-slot tweak cipher.encrypt hands the integer backend."""
    return fingerprint + index.to_bytes(4, "big") + tweak


class Tracer:
    """Rebuilds encrypt and decrypt from fpekit's public calls, timing each."""

    def __init__(self):
        self.recorder = WalkRecorder()

    def crypt(self, direction: str, cfg, key, spec, message: str, tweak: bytes, spans: dict) -> str:
        """cipher.encrypt (direction "enc") or decrypt, with span times added
        to `spans` under "<layer>.<direction>"."""
        backend = Fe1Backend(walk_budget=cfg.walk_budget, recorder=self.recorder)
        slot_fn = backend.encrypt if direction == "enc" else backend.decrypt
        t0 = clock()
        formats.ensure_valid(spec)
        t1 = clock()
        fp = cipher.format_fingerprint(spec, cfg.max_size)
        t2 = clock()
        vector = splitting.rank_multi(spec, cfg.max_size, message)
        t3 = clock()
        new_ranks = tuple(slot_fn(key, slot_tweak(fp, i, tweak), n, r)
                          for i, (r, n) in enumerate(zip(vector.ranks, vector.sizes)))
        t4 = clock()
        out = splitting.unrank_multi(spec, cfg.max_size,
                                     splitting.RankVector(new_ranks, vector.sizes), message)
        t5 = clock()
        for layer, dt in zip(LAYERS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
            spans[f"{layer}.{direction}"] = dt
        spans[f"op.{direction}"] = t5 - t0
        spans["slots"] = len(vector.ranks)
        spans["walk_steps"] = spans.get("walk_steps", 0) + sum(s for _, s in self.recorder.events)
        self.recorder.events.clear()
        return out

    def check_op(self, tally: Tally, cfg, key, spec, m: str, tweak: bytes, c_ref: str, spans: dict):
        """Rebuild encrypt and decrypt of m; both must match the real path.
        Returns `spans` with the rebuild's timings, or None on a failure."""
        c = _run_op(tally, self.crypt, "enc", cfg, key, spec, m, tweak, spans)
        d = None if c is None else _run_op(tally, self.crypt, "dec", cfg, key, spec, c, tweak, spans)
        if d is None:
            return None
        t0 = clock()
        member = formats.contains(spec, c)
        spans["formats.contains"] = clock() - t0
        if c != c_ref or d != m or not member:
            tally.fail(f"traced rebuild differs from cipher.encrypt for {m!r}")
            return None
        return spans


def layer_metrics(ops: list) -> dict:
    """Per-layer figures from traced per-op timings. An encrypt and a
    decrypt are two calls: framing layers are per call, intfpe.encipher_us
    per encrypt and intfpe.decipher_us per decrypt."""
    n = len(ops)

    def total(key):
        return sum(op[key] for op in ops)

    def both(name):
        return total(f"{name}.enc") + total(f"{name}.dec")

    out = {f"{name}_us": both(name) * 1e6 / (2 * n) for name in LAYERS if name != "intfpe"}
    out["formats.contains_us"] = total("formats.contains") * 1e6 / n
    out["intfpe.encipher_us"] = total("intfpe.enc") * 1e6 / n
    out["intfpe.decipher_us"] = total("intfpe.dec") * 1e6 / n
    out["intfpe.walk_steps_per_slot"] = total("walk_steps") / (2 * total("slots"))
    out["intfpe.us_per_walk_step"] = both("intfpe") * 1e6 / total("walk_steps")
    out["splitting.slots_per_op"] = total("slots") / n
    out["cipher.framing_share"] = (both("op") - both("intfpe")) / both("op")
    out["cipher.encrypt_us"] = total("untraced.enc") * 1e6 / n
    out["cipher.decrypt_us"] = total("untraced.dec") * 1e6 / n
    out["trace_overhead_frac"] = both("op") / both("untraced") - 1
    return out


def accounting(ops: list) -> dict:
    """How much of the traced op time the named layers cover."""
    traced = sum(op["op.enc"] + op["op.dec"] for op in ops)
    named = sum(op[f"{layer}.{d}"] for op in ops for layer in LAYERS for d in ("enc", "dec"))
    return {"traced_op_us": traced * 1e6 / (2 * len(ops)), "layers_cover_frac": named / traced}


def column_metrics(cells: list) -> dict:
    """Per-column figures from traced csv_columns cells."""
    out = {}
    for col in COLUMNS:
        mine = [c for c in cells if c["column"] == col]
        if not mine:
            raise SystemExit(f"perfbench: no {col} cell succeeded; the first error is above")
        out[f"ranking.unrank_us.{col}"] = sum(c["ranking.unrank"] for c in mine) * 1e6 / len(mine)
        out[f"cipher.encrypt_us.{col}"] = sum(c["untraced.enc"] for c in mine) * 1e6 / len(mine)
    out["cli.io_us_per_cell"] = sum(c["cell.enc"] - c["untraced.enc"] for c in cells) * 1e6 / len(cells)
    return out


# ---------------------------------------------------------------------------
# workloads


class AddressWorkload:
    """Whole address records through cipher.encrypt and cipher.decrypt."""

    def __init__(self, seed: int, max_size, group_size: int, groups: int = GROUPS):
        rng = random.Random(seed)
        self.cfg = cipher.CipherConfig(max_size=max_size)
        self.key = IntFpeKey(inputs.key_bytes(seed), rounds=self.cfg.rounds)
        records = [inputs.address(rng) for _ in range(groups * group_size)]
        self.groups = [records[i:i + group_size] for i in range(0, len(records), group_size)]
        self.spec = dsl.parse_spec(inputs.ADDRESS_SPEC)

    def cold_setup(self) -> dict:
        """Parse, validate, plan and encrypt one record with empty caches."""
        clear_caches()
        t0 = clock()
        spec = dsl.parse_spec(inputs.ADDRESS_SPEC)
        t1 = clock()
        formats.ensure_valid(spec)
        t2 = clock()
        splitting.build_plan(spec, self.cfg.max_size)
        t3 = clock()
        cipher.encrypt(self.cfg, self.key, spec, self.groups[0][0])
        t4 = clock()
        return {"total": t4 - t0, "dsl.parse_spec": t1 - t0, "formats.validate": t2 - t1,
                "splitting.build_plan": t3 - t2, "cipher.first_encrypt": t4 - t3}

    def rewarm(self, tally: Tally) -> None:
        """One untimed op, so that the caches cold_setup cleared are full again."""
        self.run_group(self.groups[0][:1], tally)

    def _crypt(self, tally: Tally, m: str):
        """Timed encrypt, then decrypt: (ciphertext, plaintext, enc s, dec s) or None."""
        t0 = clock()
        c = _run_op(tally, cipher.encrypt, self.cfg, self.key, self.spec, m)
        t1 = clock()
        d = None if c is None else _run_op(tally, cipher.decrypt, self.cfg, self.key, self.spec, c)
        t2 = clock()
        return None if d is None else (c, d, t1 - t0, t2 - t1)

    def run_group(self, group, tally: Tally) -> list:
        out = []
        for m in group:
            tally.attempted += 1
            res = self._crypt(tally, m)
            if res is not None and (res[1] != m or not formats.contains(self.spec, res[0])):
                tally.fail(f"round trip or membership broken for {m!r}")
                res = None
            out.append(None if res is None else {"enc": res[2], "dec": res[3]})
        return out

    def trace_group(self, group, tally: Tally, tracer: Tracer) -> list:
        out = []
        for m in group:
            tally.attempted += 1
            res = self._crypt(tally, m)
            out.append(None if res is None else tracer.check_op(
                tally, self.cfg, self.key, self.spec, m, b"", res[0],
                {"untraced.enc": res[2], "untraced.dec": res[3]}))
        return out


class CsvWorkload:
    """encrypt-csv, then decrypt-csv, through fpekit.cli.main in-process.

    The seeded rows are cut into GROUPS files of CSV_CHUNK_ROWS rows; a file
    is a group, and each call handles one file. While a call runs,
    cipher.encrypt and cipher.decrypt are wrapped to note when each cell's
    call starts and ends. A cell's latency is the time since the previous
    cell ended (the call's start, for the first cell); the last cell also
    takes the time until the call returns. So the cells of a call add up to
    its wall time, CSV I/O included.
    """

    def __init__(self, seed: int, workdir: Path, groups: int = GROUPS):
        rng = random.Random(seed)
        self.cfg = cipher.CipherConfig()
        self.key = IntFpeKey(inputs.key_bytes(seed), rounds=self.cfg.rounds)
        key_path = workdir / "key.hex"
        key_path.write_text(self.key.secret.hex() + "\n", encoding="ascii")
        lines = []
        for col, text in inputs.CSV_SPECS.items():
            (workdir / f"{col}.json").write_text(text, encoding="utf-8")
            lines.append(f"{col}\t{col}.json")
        map_path = workdir / "formats.tsv"
        map_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.args = ["--format-map", str(map_path), "--key", str(key_path)]
        self.specs = {c: dsl.parse_spec(t) for c, t in inputs.CSV_SPECS.items()}
        self.groups = []
        for k in range(groups):
            path = workdir / f"plain{k:03d}.csv"
            path.write_text(inputs.csv_text(inputs.csv_rows(rng, k * CSV_CHUNK_ROWS, CSV_CHUNK_ROWS)),
                            encoding="utf-8", newline="")
            self.groups.append(path)
        self.first_row = workdir / "first.csv"
        self.first_row.write_text(inputs.csv_text(inputs.csv_rows(rng, -1, 1)),
                                  encoding="utf-8", newline="")
        self.enc_path = workdir / "enc.csv"
        self.dec_path = workdir / "dec.csv"

    def _cli(self, op: str, src: Path, dst: Path) -> int:
        return cli.main([op, *self.args, "--in", str(src), "--out", str(dst)])

    def cold_setup(self) -> dict:
        """Encrypt a one-row file through the CLI with empty caches; then
        time the same stages by direct calls, summed over the columns."""
        clear_caches()
        t0 = clock()
        rc = self._cli("encrypt-csv", self.first_row, self.enc_path)
        out = {"total": clock() - t0, "dsl.parse_spec": 0.0, "formats.validate": 0.0,
               "splitting.build_plan": 0.0, "cipher.first_encrypt": 0.0}
        if rc != 0:
            raise RuntimeError(f"encrypt-csv of one row exited {rc}")
        clear_caches()
        with open(self.first_row, newline="", encoding="utf-8") as f:
            first = dict(zip(inputs.CSV_HEADER, list(csv.reader(f))[1]))
        for col, text in inputs.CSV_SPECS.items():
            t0 = clock()
            spec = dsl.parse_spec(text)
            t1 = clock()
            formats.ensure_valid(spec)
            t2 = clock()
            splitting.build_plan(spec, self.cfg.max_size)
            t3 = clock()
            cipher.encrypt(self.cfg, self.key, spec, first[col], tweak=col)
            t4 = clock()
            out["dsl.parse_spec"] += t1 - t0
            out["formats.validate"] += t2 - t1
            out["splitting.build_plan"] += t3 - t2
            out["cipher.first_encrypt"] += t4 - t3
        return out

    def rewarm(self, tally: Tally) -> None:
        """Nothing: cold_setup's one-row file already touched every column."""

    def _bad_cells(self, plain: Path) -> int:
        """Ciphertext cells outside their format, plus decrypted cells that
        differ from the input; a file that differs only in bytes counts one."""
        def rows(path):
            with open(path, newline="", encoding="utf-8") as f:
                return list(csv.reader(f))

        bad = sum(not formats.contains(self.specs[col], value)
                  for row in rows(self.enc_path)[1:]
                  for col, value in zip(inputs.CSV_HEADER, row) if col in self.specs)
        if self.dec_path.read_bytes() != plain.read_bytes():
            want, got = rows(plain), rows(self.dec_path)
            bad += max(1, sum(a != b for w, g in zip(want, got) for a, b in zip(w, g))
                       + abs(len(want) - len(got)) * len(COLUMNS))
        return bad

    def _pass(self, tally: Tally, plain: Path):
        """encrypt-csv then decrypt-csv of one file. Returns, per cell,
        (enc latency, dec latency, enc call, dec call), where a call is
        (start, end, spec, value, tweak, result); or None when the file
        failed."""
        cells = CSV_CHUNK_ROWS * len(COLUMNS)
        tally.attempted += cells
        calls = {"encrypt": [], "decrypt": []}
        real = {"encrypt": cipher.encrypt, "decrypt": cipher.decrypt}

        def wrap(op):
            def timed(cfg, key, spec, message, tweak=b"", backend=None):
                t0 = clock()
                out = real[op](cfg, key, spec, message, tweak=tweak, backend=backend)
                calls[op].append((t0, clock(), spec, message, tweak, out))
                return out
            return timed

        cipher.encrypt, cipher.decrypt = wrap("encrypt"), wrap("decrypt")
        try:
            t0 = clock()
            rc_enc = _run_op(tally, self._cli, "encrypt-csv", plain, self.enc_path)
            t1 = clock()
            rc_dec = _run_op(tally, self._cli, "decrypt-csv", self.enc_path, self.dec_path) if rc_enc == 0 else None
            t2 = clock()
        finally:
            cipher.encrypt, cipher.decrypt = real["encrypt"], real["decrypt"]
        if rc_enc != 0 or rc_dec != 0:
            tally.fail(f"CLI exited {rc_enc}/{rc_dec} on {plain.name}", cells)
            return None
        bad = self._bad_cells(plain)
        if bad or len(calls["encrypt"]) != cells or len(calls["decrypt"]) != cells:
            tally.fail(f"{bad} bad cells in {plain.name}", max(1, min(bad, cells)))
            return None

        def gaps(start, end, recs):
            ends = [r[1] for r in recs[:-1]] + [end]
            return [b - a for a, b in zip([start] + ends, ends)]

        return list(zip(gaps(t0, t1, calls["encrypt"]), gaps(t1, t2, calls["decrypt"]),
                        calls["encrypt"], calls["decrypt"]))

    def run_group(self, plain: Path, tally: Tally) -> list:
        res = self._pass(tally, plain)
        if res is None:
            return [None] * (CSV_CHUNK_ROWS * len(COLUMNS))
        return [{"enc": e, "dec": d} for e, d, _, _ in res]

    def trace_group(self, plain: Path, tally: Tally, tracer: Tracer) -> list:
        """One file through the CLI, then every cell rebuilt from the public
        calls and compared with what the CLI's cipher.encrypt returned."""
        res = self._pass(tally, plain)
        if res is None:
            return [None] * (CSV_CHUNK_ROWS * len(COLUMNS))
        out = []
        for gap, _, (e0, e1, spec, m, tweak, c), (d0, d1, *_rest) in res:
            r = ranking.rank(spec, c).value
            t0 = clock()
            ranking.unrank(spec, r)
            spans = {"untraced.enc": e1 - e0, "untraced.dec": d1 - d0, "cell.enc": gap,
                     "ranking.unrank": clock() - t0, "column": tweak}
            out.append(tracer.check_op(tally, self.cfg, self.key, spec, m,
                                       tweak.encode("utf-8"), c, spans))
        return out
