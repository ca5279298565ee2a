"""Volume-based similarity and contrastive alignment for multimodal embeddings.

Every public name loads its module the first time it is looked up (PEP 562
``__getattr__``), so ``import gramvol`` alone imports ``errors`` only and
the scoring code never imports the training modules.
"""

import sys
import types
from importlib import import_module

from . import errors

__version__ = "0.1.0"

#: Owner module -> the public names it defines; every other name is
#: imported from its module, e.g. ``gramvol.losses.loss_report``.
_EXPORTS = {
    "losses": ("gram_contrastive_loss", "total_loss"),
    "metrics": ("ModalityBatch", "MultimodalBatch", "cross_volume_matrix",
                "cross_volumes", "pearson"),
    "synth": ("SyntheticSpec", "generate_dataset"),
    "train": ("TrainConfig", "train"),
    "volume": ("gramian_volume", "normalize", "volume_gradient"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_OWNER, "errors"])


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Keeps ``gramvol.train`` the function: importing a submodule binds
    the module onto its package, which would hide the function of the same
    name."""

    def __setattr__(self, name, value):
        if not (name == "train" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
