"""The README's Library example runs as written."""

import random
import re
from pathlib import Path

from helpers import topical_corpus, write_ingest_jsonl


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    entities, relations, chunks, _ = topical_corpus(random.Random(7), n_topics=3, entities_per_topic=15)
    write_ingest_jsonl(tmp_path / "knowledge.jsonl", entities, relations, chunks)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    rendering = capsys.readouterr().out
    assert "turbine" in rendering or "flux" in rendering
    assert (tmp_path / "index" / "manifest.json").is_file()
