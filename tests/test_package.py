"""The package root holds only its version: every public name is
imported from the one module that defines it, as the README does; the
README and the package's own docstrings and comments name no module
attribute that does not exist, and the README's command-line section
names exactly the CLI's options; no module imports a name it never
uses; and the functions the two model laws return build no function."""

import argparse
import ast
import importlib
import io
import pkgutil
import re
import tokenize
import types
from pathlib import Path

import minicar
from minicar import cli, models
from minicar.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"

# The imports a module keeps without using them, each with its reason.
UNUSED_IMPORTS = {
    ("validation", "rk4_step"): "perfbench/tracing.py patches it by name",
    ("validation", "smooth"): "perfbench/tracing.py patches it by name",
    ("validation", "differentiate"): "perfbench/tracing.py patches it by name",
    ("validation", "read_table"): "re-exported for cli",
}


def test_the_package_root_exports_only_submodules_and_its_version():
    public = {name: value for name, value in vars(minicar).items() if not name.startswith("_")}
    assert all(isinstance(value, types.ModuleType) for value in public.values()), public
    assert isinstance(minicar.__version__, str)


def test_the_readme_python_blocks_run():
    """Each Python block of the README runs as written, end to end, so
    its imports and its calls follow the library's signatures."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _missing_attributes(text: str) -> list[str]:
    """Each backticked ``module.name`` (or ``minicar.module.name``) of
    ``text`` whose module is a minicar module but has no such attribute,
    and each backticked ``minicar.name`` that is neither a minicar module
    nor an attribute of the package; asserts that ``text`` names at
    least one module attribute."""
    modules = {info.name for info in pkgutil.iter_modules(minicar.__path__)}
    named = {(module, name) for module, name in
             re.findall(r"`(?:minicar\.)?(\w+)\.(\w+)", text) if module in modules}
    assert named
    missing = {f"{module}.{name}" for module, name in named
               if not hasattr(importlib.import_module(f"minicar.{module}"), name)}
    missing |= {f"minicar.{name}" for name in re.findall(r"`minicar\.(\w+)", text)
                if name not in modules and not hasattr(minicar, name)}
    return sorted(missing)


def test_a_removed_module_named_under_the_package_is_missing():
    """``minicar.<name>`` that no longer exists is flagged even though no
    module of that name is left to look attributes up in."""
    text = "`minicar.integrators.rk4_step`, `minicar.gone`, `minicar.cli` and `fitting.lm_fit`"
    assert _missing_attributes(text) == ["minicar.gone", "minicar.integrators"]


def test_every_module_attribute_the_readme_names_exists():
    """The README cannot point at a removed function."""
    missing = _missing_attributes(README.read_text())
    assert not missing, missing


def test_every_module_attribute_the_package_docstrings_and_comments_name_exists():
    """Nor can a docstring or a comment of the package's own modules."""
    texts = []
    for path in sorted(Path(minicar.__file__).parent.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        texts += [tok.string for tok in tokens if tok.type in (tokenize.COMMENT, tokenize.STRING)]
    missing = _missing_attributes("\n".join(texts))
    assert not missing, missing


def _options(parser) -> set[str]:
    """Every option string of ``parser`` and of its subcommands, but help."""
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _options(sub)
        elif not isinstance(action, argparse._HelpAction):
            options |= set(action.option_strings)
    return options


def test_the_readme_command_line_section_names_every_option_and_no_other():
    """Every ``--flag`` the README's "Command line" section names is an
    option of a ``minicar`` command, and every option appears there."""
    section = README.read_text().split("\n## Command line\n")[1].split("\n## ")[0]
    named = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", section))
    options = _options(build_parser())
    assert {flag for flag in named if flag.startswith("--")} <= options
    assert options <= named, sorted(options - named)


def _unused_imports(path: Path) -> set[tuple[str, str]]:
    """``(module, name)`` for each name ``path`` imports, but from
    ``__future__``, and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {(path.stem, name) for name in imported - used}


def test_no_module_imports_a_name_it_never_uses():
    """A dead import is a leftover of a change; only the allowlisted ones,
    each kept for its reason, may stay, and each of them is still unused."""
    unused = set().union(*map(_unused_imports, Path(minicar.__file__).parent.glob("*.py")))
    assert unused == set(UNUSED_IMPORTS), sorted(unused ^ set(UNUSED_IMPORTS))


def test_every_command_returns_only_0_or_1():
    """A command raises its refusals and leaves reporting them, with
    status 2, to ``main``: every ``return`` of a ``cli.cmd_*`` function
    returns the literal 0, or 1 for stages that did not fit."""
    tree = ast.parse(Path(cli.__file__).read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 4
    other = [f"{command.name}:{node.lineno}" for command in commands
             for node in ast.walk(command) if isinstance(node, ast.Return)
             and not (isinstance(node.value, ast.Constant) and type(node.value.value) is int
                      and node.value.value in (0, 1))]
    assert not other, other


def test_the_functions_the_two_laws_return_define_no_function():
    """A law is built once per run and called as it is in every stage: the
    function that ``models.kinematic_speed_law`` or ``dynamic_body_law``
    returns defines no nested ``def`` or ``lambda``, so no step builds one."""
    tree = ast.parse(Path(models.__file__).read_text())
    laws = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("kinematic_speed_law", "dynamic_body_law"):
        returned = laws[name].body[-1]
        assert isinstance(returned, ast.Return) and isinstance(returned.value, ast.Name), name
        law, = [node for node in laws[name].body
                if isinstance(node, ast.FunctionDef) and node.name == returned.value.id]
        nested = [node.lineno for statement in law.body for node in ast.walk(statement)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        assert not nested, (name, nested)
