"""
Comparing selectors with the classification harness
===================================================

Selected band subsets are judged by training a k-NN classifier on a
small stratified sample of labeled pixels and reporting overall
accuracy, average per-class accuracy, and Cohen's kappa over repeated
splits. The learned selector should clearly beat random subsets on a
cube whose class structure lives in the planted bands.
"""

from bandsel.cube import extract_pixels, scale_unit
from bandsel.evaluate import sweep
from bandsel.metrics import variance_rank
from bandsel.synthetic import SynthSpec, synth_generate
from bandsel.training import TrainConfig, train

spec = SynthSpec(rows=28, cols=28, bands=24, informative=(3, 9, 16, 21),
                 noise_sigma=0.01, seed=11, classes=4)
cube = scale_unit(synth_generate(spec))

cfg = TrainConfig(max_epochs=40, seed=2)
_, learned = train(extract_pixels(cube), cfg, k=4)
print(f"learned ranking head: {learned.ranking[:8]} (planted {spec.informative})")

selectors = {
    "attention": learned.ranking,
    "variance": variance_rank(cube, cube.bands).ranking,
}

# Five runs per subset size; every selector sees the same splits, and
# the extra random selector draws a fresh subset each run.
rows, aggregated = sweep(
    cube, selectors, k_values=[2, 4, 6], runs=5,
    train_fraction=0.1, k_neighbors=5, include_random=True,
)

print("\nmean +- std over 5 runs:")
for name, k, oa_m, oa_s, aa_m, aa_s, kp_m, kp_s in aggregated:
    print(f"  {name:10s} k={k}: OA {oa_m:.3f}+-{oa_s:.3f}  AA {aa_m:.3f}+-{aa_s:.3f}  kappa {kp_m:.3f}+-{kp_s:.3f}")
