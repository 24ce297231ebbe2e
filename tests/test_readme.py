import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md: Library use", "exec"), scope)
    np.testing.assert_allclose(scope["result"].centers_final[0].values, [0.1, 0.9], atol=1e-6)
    assert "[0.1 0.9]" in capsys.readouterr().out
