"""Command-line front end.

Every subcommand is a thin shell over the library: read inputs, call one
operation, write outputs. Data errors exit 1 with a single machine-parsable
line on stderr; usage errors exit 2.
"""

from __future__ import annotations

import csv
from pathlib import Path

import click

from . import cipher
from .analysis import GfpeScheme, IdentificationCurve, SgfpeScheme, expansion_and_cycles
from .dsl import parse_spec
from .errors import BadParameter, CsvFieldError, FpeError, decimal_text
from .formats import ensure_valid
from .intfpe import BOUND_LIMIT, read_key_file, write_key_file
from .ranking import rank, unrank


class SizeBound(click.ParamType):
    """Accepts a decimal integer or a 2^k literal of at least 2, or inf/none
    for unbounded."""

    name = "size"

    def convert(self, value, param, ctx):
        if value is None or isinstance(value, int):
            return value
        text = value.strip().lower()
        if text in ("", "inf", "none"):
            return None
        power = text.startswith("2^")
        try:
            size = int(text[2:] if power else text)
        except ValueError:
            self.fail(f"{value!r} is not a size (decimal, 2^k, or inf)", param, ctx)
        if power:  # every k from BOUND_LIMIT's bit length on is past it: build none of them
            size = 2 ** min(size, BOUND_LIMIT.bit_length())
        if size < 2:
            self.fail(f"{value!r} is below 2, the least slot bound", param, ctx)
        if size >= BOUND_LIMIT:
            self.fail(f"{value!r} is not below 10^4300, the largest slot bound", param, ctx)
        return size


SIZE_BOUND = SizeBound()

_format_option = click.option(
    "--format",
    "format_path",
    required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="Format definition file.",
)
_max_size_option = click.option("--max-size", "max_size", type=SIZE_BOUND, default=None,
                                help="Slot bound: decimal, 2^k, or inf.", show_default="inf")


def _read_text(path, data=None) -> str:
    """The text of a UTF-8 file, or of the data read from path; where it is
    not UTF-8, BadParameter naming the line of its first bad byte, but never
    the byte."""
    data = Path(path).read_bytes() if data is None else data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise BadParameter(f"{path}: line {line} is not valid UTF-8") from None


def _load_spec(path):
    return parse_spec(_read_text(path))


def _read_value(value):
    if value is not None:
        return value
    return _read_text("stdin", click.get_binary_stream("stdin").read()).removesuffix("\n")


@click.group()
def cli():
    """Format-preserving encryption over rankable string formats."""


@cli.command()
@click.option("--bits", type=click.Choice(["128", "256"]), default="256", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--force", is_flag=True, help="Replace an existing key file.")
def keygen(bits, out_path, force):
    """Generate a key and write it as hex, readable by the owner only."""
    try:
        write_key_file(out_path, cipher.keygen(int(bits)), overwrite=force)
    except FileExistsError:
        raise click.ClickException(f"{out_path} exists; pass --force to replace it") from None
    click.echo(out_path)


@cli.command(name="validate")
@_format_option
def validate_cmd(format_path):
    """Check a format definition; print its size if valid (by its bit length
    past the 4,300 digits CPython writes)."""
    spec = _load_spec(format_path)
    ensure_valid(spec)
    click.echo(decimal_text(spec.size))


@cli.command(name="rank")
@_format_option
@click.option("--value", default=None, help="Member string; stdin when omitted.")
def rank_cmd(format_path, value):
    """Print the rank of a format member."""
    r = rank(_load_spec(format_path), _read_value(value)).value
    try:
        text = str(r)
    except ValueError:  # past the 4,300 digits CPython writes
        raise BadParameter(f"the rank, {decimal_text(r)}, has too many digits to print") from None
    click.echo(text)


@cli.command(name="unrank")
@_format_option
@click.option("--rank", "rank_value", required=True, type=int)
def unrank_cmd(format_path, rank_value):
    """Print the format member at a rank."""
    click.echo(unrank(_load_spec(format_path), rank_value))


def _crypt_options(fn):
    for deco in (
        click.option("--value", default=None, help="Input; stdin when omitted."),
        click.option("--tweak", default="", help="Tweak string mixed into the key schedule."),
        _max_size_option,
        click.option("--key", "key_path", required=True,
                     type=click.Path(exists=True, dir_okay=False)),
        _format_option,
    ):
        fn = deco(fn)
    return fn


@cli.command()
@_crypt_options
def encrypt(format_path, key_path, max_size, tweak, value):
    """Encrypt one value inside its format."""
    cfg = cipher.CipherConfig(max_size=max_size)
    key = read_key_file(key_path)
    click.echo(cipher.encrypt(cfg, key, _load_spec(format_path), _read_value(value), tweak=tweak))


@cli.command()
@_crypt_options
def decrypt(format_path, key_path, max_size, tweak, value):
    """Decrypt one value inside its format."""
    cfg = cipher.CipherConfig(max_size=max_size)
    key = read_key_file(key_path)
    click.echo(cipher.decrypt(cfg, key, _load_spec(format_path), _read_value(value), tweak=tweak))


def _load_format_map(path):
    """Lines of `column<TAB>spec-path`; paths resolve relative to the map file."""
    mapping = {}
    base = Path(path).parent
    for lineno, line in enumerate(_read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        column, sep, spec_path = line.partition("\t")
        if not sep or not column or not spec_path.strip():
            raise BadParameter(f"{path}:{lineno}: expected column<TAB>path")
        if column in mapping:
            raise BadParameter(f"{path}:{lineno}: column {column!r} is mapped twice")
        p = Path(spec_path.strip())
        mapping[column] = _load_spec(p if p.is_absolute() else base / p)
    if not mapping:
        raise BadParameter(f"{path}: empty format map")
    return mapping


def _csv_rows(f, path):
    """The rows of f, a CSV file read as UTF-8; `_read_text`'s error where it is not."""
    try:
        yield from csv.reader(f)
    except UnicodeDecodeError:
        _read_text(path)
        raise BadParameter(f"{path} is not valid UTF-8") from None  # it changed while read


def _read_header(reader, path, columns):
    """The header row of a CSV reader; BadParameter if the file has none or
    the header lacks one of `columns`."""
    try:
        header = next(reader)
    except StopIteration:
        raise BadParameter(f"{path}: missing header row") from None
    for name in columns:
        if name not in header:
            raise BadParameter(f"column {name!r} not in header")
    return header


def _transform_csv(map_path, key_path, in_path, out_path, max_size, column_tweak, op):
    if Path(out_path).exists() and Path(out_path).samefile(in_path):
        raise BadParameter(f"--out {out_path} is the --in file, which writing would truncate")
    specs = _load_format_map(map_path)
    key = read_key_file(key_path)
    cfg = cipher.CipherConfig(max_size=max_size)
    with open(in_path, newline="", encoding="utf-8") as fin:
        reader = _csv_rows(fin, in_path)
        header = _read_header(reader, in_path, specs)
        targets = [(header.index(name), name, specs[name]) for name in specs]
        with open(out_path, "w", newline="", encoding="utf-8") as fout:
            writer = csv.writer(fout, lineterminator="\n")
            writer.writerow(header)
            for rownum, row in enumerate(reader, 2):
                for idx, name, spec in targets:
                    if idx >= len(row):
                        raise CsvFieldError(rownum, name, BadParameter("row too short"))
                    tweak = name if column_tweak else ""
                    try:
                        row[idx] = op(cfg, key, spec, row[idx], tweak=tweak)
                    except FpeError as e:
                        raise CsvFieldError(rownum, name, e) from e
                writer.writerow(row)


def _csv_options(fn):
    for deco in (
        click.option("--column-tweak/--no-column-tweak", default=True, show_default=True,
                     help="Mix each column's name into its tweak."),
        _max_size_option,
        click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False)),
        click.option("--in", "in_path", required=True,
                     type=click.Path(exists=True, dir_okay=False)),
        click.option("--key", "key_path", required=True,
                     type=click.Path(exists=True, dir_okay=False)),
        click.option("--format-map", "map_path", required=True,
                     type=click.Path(exists=True, dir_okay=False),
                     help="Lines of column<TAB>spec-path."),
    ):
        fn = deco(fn)
    return fn


@cli.command(name="encrypt-csv")
@_csv_options
def encrypt_csv(map_path, key_path, in_path, out_path, max_size, column_tweak):
    """Encrypt the mapped columns of a CSV file; other columns pass through."""
    _transform_csv(map_path, key_path, in_path, out_path, max_size, column_tweak,
                   cipher.encrypt)


@cli.command(name="decrypt-csv")
@_csv_options
def decrypt_csv(map_path, key_path, in_path, out_path, max_size, column_tweak):
    """Decrypt the mapped columns of a CSV file."""
    _transform_csv(map_path, key_path, in_path, out_path, max_size, column_tweak,
                   cipher.decrypt)


@cli.command()
@click.option("--dataset", "dataset_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV with a header row.")
@click.option("--scheme", type=click.Choice(["sgfpe", "gfpe"]), required=True)
@click.option("--format", "format_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Format definition; required for gfpe.")
@_max_size_option
@click.option("--column", default=None, help="Dataset column; first when omitted.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def analyze(dataset_path, scheme, format_path, max_size, column, out_path):
    """Write the identification curve of a dataset under a scheme."""
    if scheme == "sgfpe":
        grouping = SgfpeScheme()
    elif format_path is None:
        raise click.UsageError("--scheme gfpe requires --format")
    else:
        grouping = GfpeScheme(_load_spec(format_path), max_size)
    with open(dataset_path, newline="", encoding="utf-8") as f:
        reader = _csv_rows(f, dataset_path)
        header = _read_header(reader, dataset_path, () if column is None else (column,))
        idx = 0 if column is None else header.index(column)
        keys = []
        for rownum, row in enumerate(reader, 2):
            if len(row) > idx:
                try:
                    keys.append(grouping.group_key(row[idx]))
                except FpeError as e:
                    raise CsvFieldError(rownum, header[idx], e) from e
            elif row:
                raise CsvFieldError(rownum, header[idx], BadParameter("row too short"))
    if not keys:
        raise BadParameter(f"{dataset_path}: no data rows")
    curve = IdentificationCurve.of_groups(keys)
    with open(out_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["threshold", "fraction"])
        for threshold, fraction in curve.points:
            writer.writerow([repr(float(threshold)), repr(float(fraction))])
    click.echo(out_path)


@cli.command()
@_format_option
@click.option("--simplified", "simplified_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def bench(format_path, simplified_path, trials, seed, out_path):
    """Measure cycle-walk cost of encrypting inside a simplified format."""
    report = expansion_and_cycles(
        _load_spec(format_path), _load_spec(simplified_path), trials=trials, seed=seed
    )
    histogram = ";".join(f"{k}:{v}" for k, v in sorted(report.walk_histogram.items()))
    with open(out_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["trials", "al_cy", "expansion",
                         "t_rank", "t_int_enc", "t_unrank", "t_enc", "walk_histogram"])
        writer.writerow([report.trials, repr(report.al_cy), repr(float(report.expansion)),
                         repr(report.t_rank), repr(report.t_int_enc),
                         repr(report.t_unrank), repr(report.t_enc), histogram])
    click.echo(f"al_cy={report.al_cy:.4f} expansion={float(report.expansion):.4f}")


def main(argv=None):
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return rv or 0
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.ClickException as e:
        e.show()
        return e.exit_code
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 130
    except FpeError as e:
        click.echo(f"error: {type(e).__name__}: {e}", err=True)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
