"""What a process imports: offline inference loads no HTTP, training, data
or analysis code.

``import repro`` imports no sub-package, and ``repro.engine`` imports its
HTTP front end (:mod:`repro.engine.netserver`, and with it ``http.server``,
``http.client``, ``ssl`` and ``email``) the first time one of its names is
read.  Checked in a fresh interpreter, since the test process has imported
everything already.
"""

import json
import os
import subprocess
import sys

import numpy as np

_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                        "resnet_tiny_int.npz")

#: Modules an offline int-route process must not load.
OFFLINE_UNUSED = ("http.server", "http.client", "ssl", "email.parser",
                  "repro.engine.netserver", "repro.training",
                  "repro.analysis", "repro.data", "repro.models")

_CHILD = r"""
import json, sys
import repro
report = {"bare": sorted(m for m in sys.modules if m.startswith("repro."))}
import numpy as np
import repro.engine
from repro import engine
plan = engine.load_plan(sys.argv[1], mode="int")
out = engine.InferenceRunner(plan).predict(np.load(sys.argv[2]))
report["rows"] = int(out.shape[0])
report["loaded"] = sorted(m for m in json.loads(sys.argv[3])
                          if m in sys.modules)
report["same_class"] = (engine.NetServer
                        is sys.modules["repro.engine.netserver"].NetServer)
star = {}
exec("from repro.engine import *", star)
report["unbound"] = sorted(set(engine.__all__) - set(star))
print(json.dumps(report))
"""


def test_offline_int_process_imports_no_serving_code(tmp_path):
    with np.load(_FIXTURE) as fixture:
        artifact, x = fixture["artifact"].tobytes(), fixture["input"]
    (tmp_path / "plan.npz").write_bytes(artifact)
    np.save(tmp_path / "x.npy", x)
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "plan.npz"),
         str(tmp_path / "x.npy"), json.dumps(OFFLINE_UNUSED)],
        env=env, cwd=str(tmp_path), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["bare"] == []
    assert report["rows"] == len(x)
    assert report["loaded"] == []
    assert report["same_class"]
    assert report["unbound"] == []
