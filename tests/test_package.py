"""The package root holds only its version: every public name is
imported from the one module that defines it, as the README does; the
README names no module attribute that does not exist, and its
command-line section names exactly the CLI's options."""

import argparse
import importlib
import pkgutil
import re
import types
from pathlib import Path

import minicar
from minicar.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_every_module_attribute_the_readme_names_exists():
    """Each backticked ``module.name`` (or ``minicar.module.name``) of
    the README whose module is a minicar module names an attribute of
    that module, so the README cannot point at a removed function."""
    modules = {info.name for info in pkgutil.iter_modules(minicar.__path__)}
    named = {(module, name) for module, name in
             re.findall(r"`(?:minicar\.)?(\w+)\.(\w+)", README.read_text()) if module in modules}
    assert named
    missing = sorted(f"{module}.{name}" for module, name in named
                     if not hasattr(importlib.import_module(f"minicar.{module}"), name))
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
