"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
from pathlib import Path

import pytest

import beamblock
from beamblock.roi import DELTA_DEFAULTS

MODULES = sorted(p for p in Path(beamblock.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_sees_an_unused_import():
    source = ("import json\nimport os.path\nfrom math import pi, tau\n"
              "print(os.path.sep, tau)\n")
    assert _unused_imports(source) == ["line 1: json", "line 3: pi"]


def _is_fixture(node) -> bool:
    """Whether ``node`` is decorated as a pytest fixture, which pytest
    passes by parameter name rather than a module loading it."""
    return any("fixture" in ast.unparse(d) for d in node.decorator_list)


def _dead_definitions(sources: dict) -> list[tuple[str, str]]:
    """Top-level functions and classes, fixtures aside, that no module
    loads by name.

    ``sources`` maps module names to their source; a definition counts as
    used when any module reads it as a name or as an attribute. Returns
    (module, name) pairs.
    """
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not _is_fixture(node)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
    return [(module, name) for module, name in defined if name not in used]


def test_no_dead_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert _dead_definitions(sources) == []


def test_checker_sees_a_dead_definition():
    sources = {"a.py": "def used():\n    pass\n\n\ndef dead():\n    pass\n"
                       "\n\nclass Dead:\n    pass\n",
               "b.py": "import a\na.used()\n"}
    assert _dead_definitions(sources) == [("a.py", "dead"), ("a.py", "Dead")]


def test_no_dead_conftest_helpers():
    # a plain helper in conftest.py is shared only if a test module loads it
    tests = Path(__file__).parent
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(tests.glob("*.py"))}
    assert [name for module, name in _dead_definitions(sources)
            if module == "conftest.py"] == []


def test_checker_skips_fixtures():
    source = ("import pytest\n\n\n@pytest.fixture\ndef grid():\n    pass\n"
              "\n\n@pytest.fixture(scope='session')\ndef beams():\n    pass\n"
              "\n\ndef helper():\n    pass\n")
    assert _dead_definitions({"conftest.py": source}) == [
        ("conftest.py", "helper")]


def _unshared_array_records(source: str) -> list[str]:
    """Dataclasses with an ``np.ndarray`` field that are not declared
    ``eq=False`` on ``_ArrayRecord``, the one base that stores arrays
    read-only and compares and hashes them by value."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d for d in node.decorator_list
                      if "dataclass" in ast.unparse(d)]
        if not decorators or not any(
                isinstance(s, ast.AnnAssign)
                and "np.ndarray" in ast.unparse(s.annotation)
                for s in node.body):
            continue
        eq_false = any(k.arg == "eq" and isinstance(k.value, ast.Constant)
                       and k.value.value is False
                       for d in decorators if isinstance(d, ast.Call)
                       for k in d.keywords)
        if not (eq_false and any(ast.unparse(b) == "_ArrayRecord"
                                 for b in node.bases)):
            bad.append(node.name)
    return bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_array_dataclasses_share_one_record_base(path):
    assert _unshared_array_records(path.read_text(encoding="utf-8")) == []


def test_checker_sees_an_array_dataclass_off_the_base():
    source = ("@dataclass(frozen=True, eq=False)\n"
              "class Good(_ArrayRecord):\n    a: np.ndarray\n\n"
              "@dataclass(frozen=True)\n"
              "class HandWritten(_ArrayRecord):\n    a: np.ndarray\n\n"
              "@dataclass(frozen=True, eq=False)\n"
              "class NoBase:\n    grid: Grid\n    a: np.ndarray | None\n\n"
              "@dataclass(frozen=True)\n"
              "class Scalars:\n    x: float\n\n"
              "class Plain:\n    a: np.ndarray\n")
    assert _unshared_array_records(source) == ["HandWritten", "NoBase"]


def _writes_text(call: ast.Call) -> bool:
    """Whether an ``open`` call's mode is a constant that writes text."""
    mode = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    text = mode[0].value if mode and isinstance(mode[0], ast.Constant) else ""
    return "b" not in text and bool(set(text) & set("wax+"))


def _stray_writes(source: str) -> list[str]:
    """Text files written, by ``open`` or ``.write_text``, outside
    ``write_text``, and JSON made by ``json.dump(s)`` outside ``json_text``:
    each output decision has one function."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            owner = ("json_text" if name in ("json.dump", "json.dumps") else
                     "write_text" if name.endswith(".write_text") or (
                         name == "open" and _writes_text(node)) else None)
            if owner and function != owner:
                yield f"line {node.lineno}: {name}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)
    return list(visit(ast.parse(source), None))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_text_writer_and_one_json_serializer(path):
    assert _stray_writes(path.read_text(encoding="utf-8")) == []


def test_checker_sees_stray_writes():
    source = ("def write_text(path, text):\n"
              "    with open(path, 'w', newline='') as fh:\n"
              "        fh.write(text)\n\n"
              "def json_text(payload):\n"
              "    return json.dumps(payload)\n\n"
              "def emit(path, payload):\n"
              "    open(path, 'rb').read()\n"
              "    open(path).read()\n"
              "    open(path, 'wb').write(b'')\n"
              "    open(path, mode='a')\n"
              "    Path(path).write_text(json.dumps(payload))\n"
              "    json.dump(payload, open(path, 'w', encoding='utf-8'))\n")
    assert _stray_writes(source) == [
        "line 12: open", "line 13: Path(path).write_text",
        "line 13: json.dumps", "line 14: json.dump", "line 14: open"]


# The hand-loss analysis: only lossstats.py, home of ``Study``, runs it.
_ANALYSIS = ("loss_field", "loss_stats", "compare_models")


def _analysis_calls(source: str) -> list[str]:
    """Calls of the loss-field, loss-statistics and model-scoring steps, by
    name or as an attribute, so no command holds a copy of the analysis."""
    return [f"line {node.lineno}: {ast.unparse(node.func)}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            in _ANALYSIS]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "lossstats.py"],
                         ids=lambda p: p.name)
def test_one_hand_loss_analysis(path):
    assert _analysis_calls(path.read_text(encoding="utf-8")) == []


def test_checker_sees_analysis_calls():
    source = ("from .lossstats import loss_field, loss_stats\n"
              "from . import models\n\n"
              "def stats(free, hand, r5, w):\n"
              "    loss = loss_field(free, hand)\n"
              "    s = loss_stats(loss, r5, w)\n"
              "    return models.compare_models(free, {}, r5, w), s\n\n"
              "def fine(study):\n"
              "    return study.hand_stats(-35.0, study.weights)\n")
    assert _analysis_calls(source) == [
        "line 5: loss_field", "line 6: loss_stats",
        "line 7: models.compare_models"]


# Regions of interest and the hand-loss analysis: outside roi.py, whose law
# table names each law, ``Study`` makes each region and loss field once, and
# is the one caller of every step.
_STUDY_STEPS = ("roi_r1", "roi_r2", "roi_r3", "roi_r4", "roi_r5",
                "matched_r1_for_r5") + _ANALYSIS


def _region_builds(source: str) -> list[str]:
    """Calls of the region laws and of the analysis steps, by name or as an
    attribute, anywhere but in a method of ``Study``."""
    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if (isinstance(node, ast.Call) and owner != "Study"
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in _STUDY_STEPS):
            yield f"line {node.lineno}: {ast.unparse(node.func)}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)
    return list(visit(ast.parse(source), None))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "roi.py"],
                         ids=lambda p: p.name)
def test_study_builds_every_region(path):
    assert _region_builds(path.read_text(encoding="utf-8")) == []


def test_checker_sees_region_builds():
    source = ("class Study:\n"
              "    def r5(self, mode, floor):\n"
              "        return roi_r5(self.free, self.blocked, floor)\n\n"
              "    def loss(self):\n"
              "        return loss_field(self.free, self.hand)\n\n"
              "def hand_stats(study, floor, w):\n"
              "    base = roi.matched_r1_for_r5(study.free, floor)\n"
              "    return loss_stats(study.loss(), base, w)\n\n"
              "def summary(f, b, t):\n"
              "    return roi_r5(f, b, t), Study(f).score_models(t, {})\n\n"
              "KINDS = {'r2': lambda f, b, a: roi_r2(f, b, a.d1, a.d2)}\n")
    assert _region_builds(source) == [
        "line 9: roi.matched_r1_for_r5", "line 10: loss_stats",
        "line 13: roi_r5", "line 15: roi_r2"]


# One statement of each law default: roi.py's DELTA_DEFAULTS.
def _law_defaults(source: str) -> list[str]:
    """Numeric literals given as a law delta's default: the ``default=`` of a
    ``--deltaN`` flag, or a value bound to a ``deltaN`` name, attribute,
    keyword or parameter."""
    bound = []  # (name, value)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            flag = node.args[0] if node.args else None
            flag = (flag.value.lstrip("-") if isinstance(flag, ast.Constant)
                    and isinstance(flag.value, str) else None)
            bound += [(flag if k.arg == "default" else k.arg, k.value)
                      for k in node.keywords]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            bound += [(getattr(t, "id", getattr(t, "attr", None)), node.value)
                      for t in targets]
        elif isinstance(node, ast.arguments):
            # defaults belong to the last parameters
            params = [a.arg for a in node.posonlyargs + node.args]
            bound += zip(params[::-1], node.defaults[::-1])
            bound += zip([a.arg for a in node.kwonlyargs], node.kw_defaults)
    found = [(value.lineno, value.col_offset, name) for name, value in bound
             if name in DELTA_DEFAULTS and value is not None and any(
                 isinstance(n, ast.Constant) and type(n.value) in (int, float)
                 for n in ast.walk(value))]
    return [f"line {line}: {name}" for line, _, name in sorted(found)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "roi.py"],
                         ids=lambda p: p.name)
def test_only_roi_states_a_law_default(path):
    assert _law_defaults(path.read_text(encoding="utf-8")) == []


def test_checker_sees_law_defaults():
    source = ("p.add_argument('--delta1', type=float, default=5.0)\n"
              "p.add_argument('--delta5', type=float, help='floor')\n"
              "p.add_argument('--threshold', default=-40.0)\n"
              "args.delta5 = scenario.delta5_dbm if scenario else -35.0\n"
              "delta4: float = -35\n"
              "delta = 0.0\n"
              "study.region('r5', delta5=-30.0)\n"
              "study.region('r5', delta5=floor, mode='phantom')\n"
              "def law(free, delta1=5.0, mode=None, *, delta3=10.0):\n"
              "    delta2 = DELTA_DEFAULTS['delta2']\n"
              "    return free\n")
    assert _law_defaults(source) == [
        "line 1: delta1", "line 4: delta5", "line 5: delta4",
        "line 7: delta5", "line 9: delta1", "line 9: delta3"]


# One selection of a region's weighted sample: its empty-region error.
_EMPTY_REGION = "contains no weighted valid points"


def _empty_region_texts(source: str) -> list[str]:
    """Lines of the string constants, f-string parts too, that hold the
    empty-region error text."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and _EMPTY_REGION in node.value)]


def test_one_empty_region_error():
    found = [f"{p.name} {line}" for p in MODULES
             for line in _empty_region_texts(p.read_text(encoding="utf-8"))]
    assert len(found) == 1, found


def test_checker_sees_empty_region_texts():
    source = ('def a(w):\n'
              '    raise DataError("region contains no weighted valid '
              'points")\n\n'
              'def b(w):\n'
              '    """A region that contains no weighted valid points."""\n'
              '    raise DataError(f"selection {w} contains no weighted '
              'valid points")\n')
    assert _empty_region_texts(source) == ["line 2", "line 5", "line 6"]


# One owner of each object's private state: outside grid.py, whose
# ``PatternSet`` builds its values on first read, code reads private
# attributes only of ``self`` or ``cls``.
def _private_reads(source: str) -> list[str]:
    """Reads of an underscore attribute, dunders aside, through a lowercase
    name other than ``self`` or ``cls``. A class's private constructor, read
    through the class name (``PatternSet._deferred``), stays allowed."""
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
            and isinstance(node.value, ast.Name) and node.value.id.islower()
            and node.value.id not in ("self", "cls")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_no_private_reads_of_other_objects(path):
    assert _private_reads(path.read_text(encoding="utf-8")) == []


def test_checker_sees_private_reads():
    source = ("def mask(free, cls_name):\n"
              "    cube = free._make_values\n"
              "    pset = PatternSet._deferred(free.grid, cube())\n"
              "    object.__setattr__(pset, 'x', free.__dict__)\n"
              "    return self._keep(x=cls._adopt, y=np._core,\n"
              "                      z=pset._best)\n")
    assert _private_reads(source) == [
        "line 2: free._make_values", "line 5: np._core", "line 6: pset._best"]


# One cleaning rule: grid.py's ``_cleaned`` sets NaN at invalid points,
# clamps to the floor and refuses a non-finite valid point, and only the
# constructors there call it.
def _cleaner_names(source: str) -> list[str]:
    """Lines that name ``_cleaned``: as an import, a name or an attribute."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if "_cleaned" in (getattr(node, "id", None),
                          getattr(node, "attr", None),
                          getattr(node, "name", None)))]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_only_grid_cleans_a_field(path):
    assert _cleaner_names(path.read_text(encoding="utf-8")) == []


def test_checker_sees_cleaner_names():
    source = ("from .grid import PatternSet, _cleaned\n"
              "from . import grid\n\n"
              "def make(g, v):\n"
              "    best = _cleaned(g, v.max(axis=0), 2)\n"
              "    clean = grid._cleaned\n"
              "    return PatternSet._deferred(g, (0,), best, lambda: v)\n\n"
              "def _cleaned_copy(v):\n"
              "    return v.copy()  # _cleaned in a comment is fine\n")
    assert _cleaner_names(source) == ["line 1", "line 5", "line 6"]


# One grid-agreement check: grid.py's ``_one_grid`` compares the grids of a
# result's fields and spells the one error for a mismatch.
_GRID_MISMATCH = "must share one grid"


def _grid_checks(source: str) -> list[str]:
    """Lines that compare a ``.grid`` attribute with ``==`` or ``!=``, and
    lines of string constants, f-string parts too, that hold the mismatch
    error text."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(isinstance(x, ast.Attribute) and x.attr == "grid"
                    for x in [node.left, *node.comparators]))
        or (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _GRID_MISMATCH in node.value))]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_only_grid_checks_grid_agreement(path):
    assert _grid_checks(path.read_text(encoding="utf-8")) == []


def test_checker_sees_grid_checks():
    source = ("def pair(free, blocked, w):\n"
              "    if free.grid != blocked.grid:\n"
              "        raise DataError('free and blocked patterns must "
              "share one grid')\n"
              "    same = w.grid == free.grid\n"
              "    grid = _one_grid(f'{w} must share one grid', free, w)\n"
              "    shape = free.grid.shape == grid.shape\n"
              "    return free.grid is w.grid or grid in (1, 2)\n")
    assert _grid_checks(source) == ["line 2", "line 3", "line 4", "line 5"]


# One success code: ``run_cli`` returns 0 once its command has run, beside
# the failure codes, so no command in cli.py returns a value.
def _command_returns(source: str) -> list[str]:
    """Lines of a ``return`` with a value inside a ``_cmd_*`` function."""
    return [f"line {line}" for line in sorted(
        node.lineno for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Return) and node.value is not None)]


def test_commands_return_nothing():
    cli = Path(beamblock.__file__).parent / "cli.py"
    assert _command_returns(cli.read_text(encoding="utf-8")) == []


def test_checker_sees_command_returns():
    source = ("def _cmd_a(args) -> int:\n"
              "    if args.quiet:\n"
              "        return 1\n"
              "    return 0\n\n"
              "def _cmd_b(args) -> None:\n"
              "    if args.quiet:\n"
              "        return\n"
              "    print(args)\n\n"
              "def run_cli(argv) -> int:\n"
              "    return 0\n")
    assert _command_returns(source) == ["line 3", "line 4"]


# One quantile rule: coverage.py's ``weighted_cdf`` sorts and sums a
# region's weights and ``percentile_value`` reads the top-p value from it,
# so every statistic takes its quantiles there. scanio.py sorts row keys
# and svgplot.py thins curves; no other module sorts, sums or bisects.
_QUANTILE_STEPS = ("argsort", "cumsum", "searchsorted")
_QUANTILE_HOMES = ("coverage.py", "scanio.py", "svgplot.py")


def _quantile_steps(source: str) -> list[str]:
    """Lines that name ``argsort``, ``cumsum`` or ``searchsorted``: as an
    import, a name or an attribute."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if {getattr(node, "id", None), getattr(node, "attr", None),
            getattr(node, "name", None)} & set(_QUANTILE_STEPS))]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in _QUANTILE_HOMES],
                         ids=lambda p: p.name)
def test_one_quantile_rule(path):
    assert _quantile_steps(path.read_text(encoding="utf-8")) == []


def test_checker_sees_quantile_steps():
    source = ("import numpy as np\n"
              "from numpy import cumsum\n\n"
              "def median(v, w):\n"
              "    order = np.argsort(v, kind='stable')\n"
              "    cum = cumsum(w[order])\n"
              "    i = cum.searchsorted(0.5)  # np.argsort in a comment\n"
              "    return np.sort(v)[i], 'cumsum'\n")
    assert _quantile_steps(source) == ["line 2", "line 5", "line 6",
                                       "line 7"]


# What a process keeps between calls: cli's parser, cli's last analysis
# pattern sets and synthesis's last u lattice, each memoized once, all but
# the parser with a bound of one entry.
_MEMOS = ("cache", "lru_cache")


def _memos(source: str) -> list[str]:
    """Uses of functools' ``cache`` and ``lru_cache``: a function decorated
    with one as "name: decorator", any other use as "line N: code"."""
    def is_memo(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr in _MEMOS
                and ast.unparse(node.value) == "functools") or (
            isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(alias.name in _MEMOS for alias in node.names))
    tree = ast.parse(source)
    found, decorating = [], set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in fn.decorator_list:
                uses = [n for n in ast.walk(d) if is_memo(n)]
                if uses:
                    found.append(f"{fn.name}: {ast.unparse(d)}")
                    decorating.update(map(id, uses))
    return found + [f"line {n.lineno}: {ast.unparse(n)}"
                    for n in ast.walk(tree)
                    if is_memo(n) and id(n) not in decorating]


def test_only_the_parser_the_kept_patterns_and_the_u_lattice_are_memoized():
    found = {p.name: _memos(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {name: memos for name, memos in found.items() if memos} == {
        "cli.py": ["_kept_patterns: functools.lru_cache(maxsize=1)",
                   "build_parser: functools.cache"],
        "synth.py": ["_u_lattice: functools.lru_cache(maxsize=1)"]}


def test_checker_sees_an_unbounded_or_misplaced_pattern_memo():
    """A kept-patterns memo without its bound, or one on build_patterns,
    which report and synth also call, reads differently from the rule."""
    source = ("import functools\n\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def _kept_patterns(scenario):\n    pass\n\n"
              "@functools.lru_cache(maxsize=1)\n"
              "def build_patterns(scenario):\n    pass\n")
    assert _memos(source) == [
        "_kept_patterns: functools.lru_cache(maxsize=None)",
        "build_patterns: functools.lru_cache(maxsize=1)"]


def test_checker_sees_memos():
    source = ("import functools\n"
              "from functools import lru_cache, partial\n\n"
              "@functools.cache\n"
              "def parser():\n    pass\n\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def lattice(key):\n    pass\n\n"
              "@lru_cache\n"
              "def bare(key):\n    pass\n\n"
              "class Grid:\n"
              "    @functools.lru_cache()\n"
              "    def weights(self):\n        pass\n\n"
              "table = functools.cache(lambda key: key)\n"
              "cache = {}\n")
    assert _memos(source) == [
        "parser: functools.cache",
        "lattice: functools.lru_cache(maxsize=None)",
        "weights: functools.lru_cache()",
        "line 2: from functools import lru_cache, partial",
        "line 21: functools.cache"]
