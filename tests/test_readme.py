import json
import re
from pathlib import Path

import numpy as np

from qupel import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md: Library use", "exec"), scope)
    np.testing.assert_allclose(scope["result"].centers_final[0].values, [0.1, 0.9], atol=1e-6)
    assert "[0.1 0.9]" in capsys.readouterr().out


def test_config_schema_lists_every_key_the_readers_ask_for(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    schema = re.search(r"### Config schema.*?```jsonc\n(.*?)```", text, re.S).group(1)
    asked, get = set(), cli._get

    def spy(cfg, path, *args, **kwargs):
        asked.update(path.split("."))
        return get(cfg, path, *args, **kwargs)

    monkeypatch.setattr(cli, "_get", spy)
    monkeypatch.delenv("QUPEL_SEED", raising=False)
    shipped = {p.stem: json.loads(p.read_text()) for p in (README.parent / "configs").glob("*.json")}
    (tmp_path / "a.csv").write_text("f0,label\n0.5,0\n-0.5,1\n")
    qupel = shipped["qupel"]
    variants = [  # with the shipped configs, every branch of the readers
        dict(shipped["centralized_mlp"],
             dataset={"kind": "csv", "train": str(tmp_path / "a.csv"),
                      "test": str(tmp_path / "a.csv")}),
        dict(qupel, quantization={"m_list": [4] * qupel["partition"]["clients"]}),
        dict(qupel, quantization={"case": "2bits"}),
        dict(qupel, quantization={"hard_limit": False}),  # only soft mode reads sharpness
        {k: v for k, v in shipped["compare"].items() if k != "seeds"},
    ]
    for cfg in [*shipped.values(), *variants]:
        (cli.read_compare_config if "modes" in cfg else cli.read_run_config)(cfg)
    assert asked == set(re.findall(r'"(\w+)":', schema))
