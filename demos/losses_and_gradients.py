"""
The training objective, term by term
====================================

Runs the loss stack on a tiny scene. The heatmap and endpoint terms vanish
when the prediction matches the targets. The two geometric terms judge each
carrier cell's view of the lines: a cell sitting on a middle line sees
antiparallel endpoint offsets, the exact center sees perpendicular ones, and
cells elsewhere in the drift region carry a standing value even at ground
truth. So read the deltas between rows, not the absolute numbers.
"""

import numpy as np

from midlines.encoder import encode_image
from midlines.geometry import box_to_midlines, rectangle
from midlines.gradcheck import run_gradchecks
from midlines.losses import LossWeights, total_loss

scene = [
    rectangle(40, 40, 30, 12, 20),
    rectangle(90, 70, 24, 10, 80, class_id=1),
]
target = encode_image(scene, image_w=128, image_h=128, num_classes=2)


def predict_like(t, heatmap=None, regression=None):
    out = encode_image([], 128, 128, 2)
    out.heatmap = t.heatmap.copy() if heatmap is None else heatmap
    out.regression = t.regression.copy() if regression is None else regression
    out.n_objects = t.n_objects
    out.reg_mask = t.reg_mask
    return out


def report(label, pred, tgt, weights=LossWeights()):
    v = total_loss(pred, tgt, weights)
    print(f"{label:<28} total={v.total:9.4f}  ip={v.ip:8.4f}  "
          f"endpoint={v.l1:8.4f}  collinear={v.l2:8.4f}  vertical={v.l3:8.4f}")


# Ground truth fed back as the prediction: the first two terms hit zero,
# the standing geometry values remain.
report("ground truth as prediction", predict_like(target), target)

# Blur the heatmap: only the focal term reacts.
noisy_hm = np.clip(target.heatmap * 0.6 + 0.2, 0.0, 1.0)
report("blurred heatmap", predict_like(target, heatmap=noisy_hm), target)

# Shift every regressed endpoint by two pixels.
shifted = target.regression + 2.0
report("endpoints shifted 2px", predict_like(target, regression=shifted), target)

# Rotate only the second line's first endpoint so it stops being
# perpendicular to the first: text mode shields exactly that term.
skewed = target.regression.copy()
skewed[:, 4:6] += 3.0
pred = predict_like(target, regression=skewed)
report("skewed second line", pred, target)
report("same, text mode", pred, target, LossWeights(text_mode=True))

# Restrict the targets to the exact center cell of the first box, whose
# cell point is its intersection point: there the offsets run along the
# two middle lines and every geometric penalty vanishes at ground truth.
b = int(box_to_midlines(scene[0]).branch[0])
only_center = np.zeros_like(target.reg_mask)
only_center[b, 10, 10] = True
narrow_target = predict_like(target)
narrow_target.reg_mask = only_center
narrow_target.n_objects = 1
print()
report("center cell only", predict_like(target), narrow_target)

print()
for rep in run_gradchecks(seed=0, samples=10):
    print(f"gradcheck {rep.name:<10} max rel err {rep.max_rel_error:.2e} "
          f"over {rep.n_components} components -> "
          f"{'ok' if rep.passed else 'MISMATCH'}")
