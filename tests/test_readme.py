"""The python examples under README's "Library use" run against the package
as installed, every plan the README shows parses, and every
`trialcraft.<module>.<name>` the README mentions exists, so a documented
name that leaves the package fails here."""
import ast
import importlib
import json
import re
from pathlib import Path

import numpy as np

import trialcraft
from trialcraft.plans import plan_from_dict, simulation_spec_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_use_examples_run():
    blocks = library_use_blocks()
    assert blocks, "README has no python examples under 'Library use'"
    rng = np.random.default_rng(200)
    n = 200
    age = rng.normal(50.0, 10.0, n)
    sex = rng.integers(0, 2, n).astype(float)
    bmi = rng.normal(27.0, 4.0, n)
    z = rng.permutation(np.arange(n) % 2).astype(float)
    y = 0.5 * z + 0.05 * age + 0.3 * sex + 0.1 * bmi + rng.standard_normal(n)
    namespace = {"y": y, "z": z, "x": np.column_stack([age, sex, bmi])}
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "trialcraft":
                missing = {a.name for a in node.names} - set(trialcraft.__all__)
                assert not missing, f"README imports names outside __all__: {sorted(missing)}"
        exec(compile(block, str(README), "exec"), namespace)
    assert np.isfinite(namespace["result"].theta_hat)


def test_dotted_names_resolve():
    text = README.read_text(encoding="utf-8")
    dotted = sorted(set(re.findall(r"\btrialcraft\.(\w+)\.(\w+)", text)))
    assert dotted, "README names no trialcraft.<module>.<name>"
    missing = [f"trialcraft.{module}.{name}" for module, name in dotted
               if not hasattr(importlib.import_module(f"trialcraft.{module}"), name)]
    assert not missing, f"README names what the package lacks: {missing}"


def test_example_plans_parse():
    blocks = [json.loads(block) for block in
              re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)]
    plans = [block for block in blocks if "estimator" in block]
    assert plans, "README shows no plan"
    for plan in plans:
        plan_from_dict(plan)
    for spec in (block for block in blocks if "plan" in block):
        simulation_spec_from_dict(spec)
