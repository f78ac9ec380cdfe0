"""The classical stages one by one, no training involved.

Run:  python demos/demo_postprocessing.py   (instant)
"""

import numpy as np

from chestkit.postproc import (
    adaptive_threshold,
    apply_mask,
    close_mask,
    connected_components,
    dilate,
    erode,
    heatmap_overlay,
    infection_percentage,
    open_mask,
    select_largest,
)

# a noisy mask: one big lung-ish blob, a hole, and scattered specks
mask = np.zeros((24, 24), dtype=bool)
mask[4:20, 6:18] = True
mask[10, 11] = False                  # a hole
mask[1, 1] = mask[22, 2] = mask[2, 21] = True   # specks

refined = open_mask(close_mask(mask))
assert refined.sum() == mask.sum() - 3 + 1   # three specks gone, hole filled
print(f"raw mask: {mask.sum()} px; refined: {refined.sum()} px "
      f"(hole filled, specks gone)")

regions = connected_components(refined, connectivity=8)
print(f"{len(regions)} region(s); largest has {regions[0].pixel_count} px, "
      f"bbox {regions[0].bbox}")
lung = select_largest(regions, 1, refined.shape)

# erosion/dilation shrink and grow by the 3x3 box
print(f"erode: {erode(lung).sum()} px, dilate: {dilate(lung).sum()} px")

# paint an image: flat lung at 100 with two bright spots
image = np.full((24, 24), 40, dtype=np.uint8)
image[lung] = 100
image[8:11, 9:12] = 180
image[15:17, 12:14] = 180
spots = adaptive_threshold(apply_mask(image, lung), lung, window=15, offset=5.0)
print(f"adaptive threshold found {spots.sum()} bright px")

report = infection_percentage(lung, spots)
print(f"lung {report.lung_pixels} px, infected {report.infected_pixels} px "
      f"-> {report.percent_text}% (truncated, not rounded)")

heat = heatmap_overlay(image, spots)
print(f"heatmap is RGB {heat.shape}; infected pixels blend toward red: "
      f"{tuple(heat[9, 10])}")
