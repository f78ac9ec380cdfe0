"""Correctness checks the benchmark applies to chestkit's outputs.

Each check returns a list of problems (empty when the output is right) and
builds its expectation without calling chestkit, so a fault in the program
cannot make its own yardstick agree with it.
"""

from __future__ import annotations

import math

import numpy as np

# Off the relu kinks, central differences agree with backward to 1e-7 on
# seg-desk and full-width Nabla-3, and to 1e-4 at worst over 41 xray-det-desk
# seeds (a pre-activation within a step of zero); a gradient 1% off must fail.
GRADIENT_TOLERANCE = 1e-3


def gradient_problems(analytic: float, numeric: float) -> list[str]:
    """Directional derivative from backward against central differences."""
    if not (math.isfinite(analytic) and math.isfinite(numeric)):
        return [f"gradient check: non-finite values {analytic!r}, {numeric!r}"]
    scale = max(abs(analytic), abs(numeric))
    if scale == 0.0:
        return ["gradient check: directional derivative is exactly zero"]
    error = abs(analytic - numeric) / scale
    if error > GRADIENT_TOLERANCE:
        return [f"gradient check: backward gives {analytic:.9g}, central differences "
                f"{numeric:.9g} (relative error {error:.2e} > {GRADIENT_TOLERANCE})"]
    return []


def loss_problems(losses: list[float], must_fall: bool) -> list[str]:
    """Every epoch loss is finite and, for desk training, the last is below the first."""
    if not losses or not all(math.isfinite(x) for x in losses):
        return [f"training loss not finite: {losses}"]
    if must_fall and not losses[-1] < losses[0]:
        return [f"training loss did not fall: first epoch {losses[0]:.6f}, "
                f"last epoch {losses[-1]:.6f}"]
    return []


def digest_problems(digests: list[str]) -> list[str]:
    """Every round of one invocation trains to the same weights."""
    if len(set(digests)) > 1:
        return [f"weights differ between identical rounds: {sorted(set(digests))}"]
    return []


def pgm_bytes(gray: np.ndarray) -> bytes:
    """Canonical binary PGM of a uint8 image."""
    h, w = gray.shape
    return f"P5\n{w} {h}\n255\n".encode() + np.ascontiguousarray(gray, np.uint8).tobytes()


def ppm_bytes(rgb: np.ndarray) -> bytes:
    h, w = rgb.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode() + np.ascontiguousarray(rgb, np.uint8).tobytes()


def mask_bytes(mask: np.ndarray) -> bytes:
    return pgm_bytes(np.where(mask, 255, 0).astype(np.uint8))


def heatmap_bytes(image: np.ndarray, infected: np.ndarray) -> bytes:
    """Infected pixels blended halfway to red, the rest replicated gray."""
    g = image.astype(np.int64)
    rgb = np.stack([np.where(infected, (g + 255) // 2, g),
                    np.where(infected, g // 2, g),
                    np.where(infected, g // 2, g)], axis=-1)
    return ppm_bytes(rgb.astype(np.uint8))


def report_text(lung: np.ndarray, infected: np.ndarray) -> str:
    """The report the ground truth implies: truncated percentage, two decimals."""
    lung_pixels = int(lung.sum())
    infected_pixels = int((infected & lung).sum())
    hundredths = (10000 * infected_pixels) // lung_pixels if lung_pixels else 0
    return (f"lung_pixels={lung_pixels}\ninfected_pixels={infected_pixels}\n"
            f"percent={hundredths // 100}.{hundredths % 100:02d}\n"
            f"degenerate={'false' if lung_pixels else 'true'}\n")


def pipeline_problems(label: str, outputs: dict[str, bytes | str],
                      image: np.ndarray, lung: np.ndarray,
                      infected: np.ndarray) -> list[str]:
    """The encoded region mask, infected mask, heatmap and report of one
    image against the generator's ground-truth masks."""
    expected = {
        "region": mask_bytes(lung),
        "infected": mask_bytes(infected),
        "heatmap": heatmap_bytes(image, infected),
        "report": report_text(lung, infected),
    }
    return [f"{label}: {key} differs from the ground truth"
            for key, want in expected.items() if outputs.get(key) != want]


def tail(durations: list[float]) -> tuple[float, float] | None:
    """The highest percentile with ten samples beyond it, and its value.

    ``None`` below forty samples, where that percentile would be no tail.
    """
    n = len(durations)
    if n < 40:
        return None
    ordered = sorted(durations)
    return 100.0 * (n - 10) / n, ordered[n - 11]
