import pytest

from repro.cli import main


def _gen(tmp_path, n=20):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["gen", str(n), "--seed", "2"]) == 0
    f = tmp_path / "doc.xml"
    f.write_text(buf.getvalue(), encoding="utf-8")
    return f


def test_gen_stats_query_reconstruct(tmp_path, capsys):
    f = _gen(tmp_path)

    assert main(["stats", str(f)]) == 0
    out = capsys.readouterr().out
    assert "skeleton_nodes" in out and "vectors" in out

    assert main(["query", str(f),
                 "/site/people/person/profile/age/text()", "--values"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("count ")
    assert int(out[0].split()[1]) == len(out) - 1 == 20

    for mode in ("vx", "naive"):
        assert main(["query", str(f), "//item[quantity > 5]/name",
                     "--mode", mode, "--canonical"]) == 0
    capsys.readouterr()

    assert main(["reconstruct", str(f)]) == 0
    xml = capsys.readouterr().out.rstrip("\n")
    assert xml == f.read_text(encoding="utf-8")


def test_cli_reports_errors(tmp_path, capsys):
    f = tmp_path / "bad.xml"
    f.write_text("<a><b></a>", encoding="utf-8")
    assert main(["stats", str(f)]) == 1
    assert "error" in capsys.readouterr().err

    g = _gen(tmp_path, 5)
    assert main(["query", str(g), "not-an-xpath"]) == 1


@pytest.mark.parametrize("argv", [
    ["repo", "query", "d", "q", "--per-combo"],
    ["repo", "query", "d", "q", "--no-prune"],
    ["repo", "query", "d", "q", "--no-index"],
    ["repo", "query", "d", "q", "--no-codec-eval"],
    ["query", "f", "q", "--no-index"],
    ["query", "f", "q", "--no-codec-eval"],
    ["save", "f", "out", "--format", "3"],
])
def test_cli_removed_escape_hatches_are_unknown_options(argv, capsys):
    """The byte-identical alternate paths are file twins in the
    differential tests now, not switches anywhere: argparse rejects each
    former flag (exit 2) before any file is touched."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [
    ["query", "f", "q"], ["repo", "query", "d", "q"], ["serve", "d"]])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "soon"])
def test_cli_deadline_must_be_positive_finite_seconds(cmd, value, capsys):
    """Regression: ``--deadline nan`` ran with no deadline at all (nothing
    compares greater than NaN) and 0/-1 surfaced as a runtime timeout;
    each is a usage error naming the flag, before any file is touched."""
    with pytest.raises(SystemExit) as exc:
        main([*cmd, f"--deadline={value}"])
    assert exc.value.code == 2
    assert "--deadline" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["serve", "d", "--result-cache", "nan"], "--result-cache"),
    (["serve", "d", "--result-cache", "-1"], "--result-cache"),
    (["serve", "d", "--result-cache", "inf"], "--result-cache"),
    (["serve", "d", "--queue", "-1"], "--queue"),
    (["serve", "d", "--queue-timeout", "nan"], "--queue-timeout"),
    (["serve", "d", "--queue-timeout", "0"], "--queue-timeout"),
    (["serve", "d", "--workers", "0"], "--workers"),
    (["serve", "d", "--port", "99999"], "--port"),
    (["serve", "d", "--port", "-1"], "--port"),
    (["serve", "d", "--pool", "1"], "--pool"),
    (["stats", "f", "--pool", "1"], "--pool"),
    (["query", "f", "q", "--pool", "0"], "--pool"),
    (["reconstruct", "f", "--pool", "-4"], "--pool"),
    (["open", "f", "--pool", "1"], "--pool"),
    (["repo", "query", "d", "q", "--pool", "1"], "--pool"),
    (["serve", "d", "--chaos", ""], "--chaos"),
    (["serve", "d", "--chaos", "2"], "--chaos"),
    (["serve", "d", "--chaos", "x:1"], "--chaos"),
    (["save", "f", "o", "--page-size", "10"], "--page-size"),
    (["repo", "add", "d", "f", "--page-size", "10"], "--page-size"),
])
def test_cli_numeric_flags_are_validated_by_argparse(argv, flag, capsys):
    """Regression: ``serve`` validated only ``--deadline`` — a NaN or
    negative cache budget, a negative queue and an out-of-range port
    died with Python tracebacks, ``--queue-timeout nan`` and
    ``--workers 0`` started serving, and ``--pool 1`` was a runtime
    StorageError (exit 1); ``--chaos ''`` served with no injector and
    ``--chaos 2`` exited 2 without argparse's usage line; ``--page-size
    10`` was a runtime StorageError from the page layer.  Each is a
    usage error naming the flag, before any file is touched."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_cli_rejects_inapplicable_flags(tmp_path, capsys):
    """Regression: --values/--canonical on XQ and --plan on XPath used to
    be silently ignored; they are usage errors naming the flag."""
    f = _gen(tmp_path, 5)
    xq = "for $p in //person return <r>{$p/name}</r>"

    assert main(["query", str(f), xq, "--values"]) == 2
    assert "--values" in capsys.readouterr().err

    assert main(["query", str(f), xq, "--canonical"]) == 2
    assert "--canonical" in capsys.readouterr().err

    assert main(["query", str(f), "/site/people/person", "--plan"]) == 2
    assert "--plan" in capsys.readouterr().err

    # the still-valid combinations keep working
    assert main(["query", str(f), "/site/people/person", "--values",
                 "--canonical"]) == 0
    capsys.readouterr()
    assert main(["query", str(f), xq, "--plan"]) == 0
    capsys.readouterr()


def test_cli_save_open_query_disk(tmp_path, capsys):
    f = _gen(tmp_path, 12)
    vdoc_path = str(tmp_path / "doc.vdoc")

    assert main(["save", str(f), vdoc_path, "--page-size", "256"]) == 0
    out = capsys.readouterr().out
    assert "pages" in out and "vectors" in out

    assert main(["open", vdoc_path]) == 0
    out = capsys.readouterr().out
    assert "page_size" in out and "vector_pages" in out

    query = "//item[quantity > 2]/name"
    assert main(["query", str(f), query, "--canonical"]) == 0
    mem_out = capsys.readouterr().out
    assert main(["query", vdoc_path, query, "--canonical",
                 "--pool", "16", "--io-stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == mem_out  # byte-identical to the in-memory path
    assert "pages_read=" in captured.err and "pinned=0" in captured.err

    # stats and reconstruct accept vdoc inputs transparently
    assert main(["stats", vdoc_path, "--pool", "16"]) == 0
    assert "vectors" in capsys.readouterr().out
    assert main(["reconstruct", vdoc_path]) == 0
    assert capsys.readouterr().out.rstrip("\n") == \
        f.read_text(encoding="utf-8").rstrip("\n")

    # corrupt / non-vdoc binary input is a reported error, not a traceback
    bad = tmp_path / "bad.vdoc"
    bad.write_bytes(b"\x00" * 64)
    assert main(["stats", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_xq_query(tmp_path, capsys):
    f = _gen(tmp_path, 15)
    q = ("for $p in /site/people/person where $p/profile/age > '40' "
         "return <r>{$p/name}</r>")

    assert main(["query", str(f), q, "--plan"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("<result")
    assert "instantiate" in captured.err and "select" in captured.err

    assert main(["query", str(f), q, "--mode", "naive"]) == 0
    naive_out = capsys.readouterr().out
    assert naive_out == captured.out

    # XQ syntax errors are reported, not raised
    assert main(["query", str(f), "for $x in"]) == 1
    assert "error" in capsys.readouterr().err


def _make_cli_repo(tmp_path, capsys, n_docs=2):
    from repro.datasets.synth import xmark_like_xml

    d = str(tmp_path / "repo")
    assert main(["repo", "init", d, "--name", "auctions"]) == 0
    for i in range(n_docs):
        f = tmp_path / f"m{i}.xml"
        f.write_text(xmark_like_xml(8 + 4 * i, seed=i), encoding="utf-8")
        assert main(["repo", "add", d, str(f), "--page-size", "512"]) == 0
    capsys.readouterr()
    return d


def test_cli_repo_init_add_ls(tmp_path, capsys):
    d = _make_cli_repo(tmp_path, capsys)
    assert main(["repo", "ls", d]) == 0
    out = capsys.readouterr().out
    assert "repository 'auctions': 2 member(s)" in out
    assert "m0" in out and "m1" in out and "paths=" in out

    # init refuses an existing repository; add refuses duplicate names
    assert main(["repo", "init", d, "--name", "other"]) == 1
    assert "already a repository" in capsys.readouterr().err
    assert main(["repo", "add", d, str(tmp_path / "m0.xml")]) == 1
    assert "already exists" in capsys.readouterr().err


def test_cli_repo_query_collection(tmp_path, capsys):
    d = _make_cli_repo(tmp_path, capsys)
    q = ("for $p in collection('auctions')/site/people/person "
         "where $p/profile/age > '40' return <r>{$p/name}</r>")
    assert main(["repo", "query", d, q, "--pool", "6", "--io-stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("<result")
    err = captured.err
    assert "pool_pages_read=" in err and "pinned=0" in err
    assert "m0.pages_read=" in err and "m1.pages_read=" in err

    # XPath over a repository: per-member counts
    assert main(["repo", "query", d, "/site/people/person"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["m0: count 8", "m1: count 12"]

    # a collection name that is not this repository is an error
    assert main(["repo", "query", d, q.replace("auctions", "nope")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_repo_io_stats_printed_on_error(tmp_path, capsys):
    """A failing collection query still reports what it read, and the
    error names the corrupt member; `check` on the directory agrees."""
    import os

    d = _make_cli_repo(tmp_path, capsys)
    victim = os.path.join(d, "m1.vdoc")
    size = os.path.getsize(victim)
    with open(victim, "r+b") as f:     # corrupt pages, keep the header
        for off in range(512, size - 1024, 512):
            f.seek(off + 64)
            f.write(b"\xee" * 32)
    q = ("for $p in /site/people/person where $p/profile/age > '40' "
         "return <r>{$p/name}</r>")
    assert main(["repo", "query", d, q, "--io-stats"]) == 1
    captured = capsys.readouterr()
    assert "pool_pages_read=" in captured.err  # stats despite the failure
    assert "pinned=0" in captured.err          # and the pool stayed clean
    assert "member 'm1'" in captured.err

    assert main(["check", d]) == 1
    captured = capsys.readouterr()
    assert "member 'm1'" in captured.out
    assert "integrity finding(s)" in captured.err


def test_cli_check_repo_ok_and_not_a_repo(tmp_path, capsys):
    d = _make_cli_repo(tmp_path, capsys)
    assert main(["check", d]) == 0
    assert "ok" in capsys.readouterr().out
    empty = tmp_path / "not-a-repo"
    empty.mkdir()
    assert main(["check", str(empty)]) == 1
    out = capsys.readouterr().out
    assert "repo.json" in out


def _codec_rich_xml(tmp_path, n=200):
    items = "".join(
        f"<it><id>{1000 + i}</id><cat>c{i % 5}</cat>"
        f"<note>shared prose, distinct tail number {i} of many</note></it>"
        for i in range(n))
    f = tmp_path / "codec.xml"
    f.write_text(f"<r>{items}</r>", encoding="utf-8")
    return f


def test_cli_save_format_and_index_ls_compression(tmp_path, capsys,
                                                  identity_doc):
    f = _codec_rich_xml(tmp_path)
    coded, plain = (str(tmp_path / "coded.vdoc"),
                    str(tmp_path / "plain.vdoc"))

    assert main(["save", str(f), coded, "--page-size", "512"]) == 0
    out = capsys.readouterr().out
    assert "format           6" in out
    assert "compression_ratio" in out and "codecs" in out

    # the uncompressed twin is a test-only fixture (identity codec forced)
    identity_doc(f.read_text("utf-8")).save(plain, page_size=512)

    # index ls prints per-vector codec + logical/on-disk bytes from the
    # catalog alone, before any index exists
    assert main(["index", "ls", coded]) == 0
    out = capsys.readouterr().out
    assert "codec=dict" in out and "codec=delta" in out
    assert "logical=" in out and "disk=" in out
    assert "ratio=" in out
    assert "no index segments" in out

    # the two codings answer queries byte-identically through the CLI
    q = "for $i in /r/it where $i/cat = 'c2' return <o>{$i/id}</o>"
    assert main(["query", coded, q, "--pool", "8"]) == 0
    out_coded = capsys.readouterr().out
    assert main(["query", plain, q, "--pool", "8"]) == 0
    assert capsys.readouterr().out == out_coded


def test_cli_repo_ls_compression_summary(tmp_path, capsys):
    f = _codec_rich_xml(tmp_path)
    d = str(tmp_path / "repo")
    assert main(["repo", "init", d, "--name", "col"]) == 0
    assert main(["repo", "add", d, str(f), "--name", "m0"]) == 0
    capsys.readouterr()
    assert main(["repo", "ls", d]) == 0
    out = capsys.readouterr().out
    assert "codecs[" in out and "dict=" in out
    assert "compression: logical=" in out and "ratio=" in out
