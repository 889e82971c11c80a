"""ray_data_mplsh — a Ray-Data-native near-duplicate detection + clustering engine.

A from-scratch re-imagining of the capability denoted by the reference repo
``UpToEleven1102/Multi-Probe-LSH-in-C`` (`/root/reference/README.md:1` — the
snapshot contains only its title line; the algorithm is the published
Multi-Probe LSH of Lv et al., VLDB 2007), transplanted from online k-NN
search into offline web-scale text dedup per ``SURVEY.md`` §0.2:

    HTML -> byte-exact text -> k-shingles -> MinHash signatures (vectorized
    NumPy on plain tasks) -> LSH band keys augmented with multi-probe
    perturbation keys -> (band_id, band_hash) shuffle with hot-bucket
    salting -> candidate pairs -> Jaccard verification -> distributed
    union-find (iterative star contraction) -> winnow-anchored substring pass
    -> deduplicated corpus + cluster map, with lineage and resumable
    Parquet checkpoints.

Everything is built on ``ray.data.Dataset`` + ``map_batches`` over zero-copy
Arrow batches; no ``ray.init`` is ever called inside this package.
"""

from ray_data_mplsh.config import MPLSHConfig

__all__ = ["MPLSHConfig", "run_dedup", "run_dedup_incremental",
           "read_pages", "read_documents", "synth_pages", "knn_bruteforce",
           "knn_lsh", "embedding_near_dup"]
__version__ = "0.2.0"

_LAZY = {
    "run_dedup": ("ray_data_mplsh.pipelines.dedup", "run_dedup"),
    "run_dedup_incremental": ("ray_data_mplsh.pipelines.incremental",
                              "run_dedup_incremental"),
    "read_pages": ("ray_data_mplsh.sources", "read_pages"),
    "read_documents": ("ray_data_mplsh.sources", "read_documents"),
    "synth_pages": ("ray_data_mplsh.fixtures", "synth_pages"),
    "knn_bruteforce": ("ray_data_mplsh.pipelines.similarity",
                       "knn_bruteforce"),
    "knn_lsh": ("ray_data_mplsh.pipelines.similarity", "knn_lsh"),
    "embedding_near_dup": ("ray_data_mplsh.pipelines.similarity",
                           "embedding_near_dup"),
}


def __getattr__(name):
    """Lazy top-level API (keeps package import light)."""
    try:
        mod, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(name) from None
    import importlib

    return getattr(importlib.import_module(mod), attr)
