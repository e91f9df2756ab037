"""Image processing service — the reproduction's YOLO pipeline (Table 5).

Real convolution + pooling + detection-head math in numpy over synthetic
images, at 1/4 linear scale of the paper's 100-image segmentation batch.
Weights are a *common* region (shared across sandboxes); per-image
buffers live in confined heap.
"""

from __future__ import annotations

import numpy as np

from ..libos.libos import CommonSpec, PreloadFile
from .base import MIB, Workload, WorkloadProfile, register

IMG = 32          # image side
KERNELS = 8       # conv filters
#: per-barrier-item compute, cycles (64 items per image, 8 threads)
CYCLES_PER_ITEM = 6_000_000


@register
class YoloWorkload(Workload):
    name = "yolo"
    description = ("NCNN/OpenCV-style image segmentation over an input "
                   "image batch with common Yolov5-shaped weights")

    images = 24

    def __init__(self, seed: int = 0, scale: float = 1.0):
        super().__init__(seed, scale)
        rng = np.random.default_rng(seed + 2)
        self.filters = rng.standard_normal((KERNELS, 3, 3)).astype(np.float32)
        self.head = rng.standard_normal((KERNELS, 4)).astype(np.float32)

    @property
    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            heap_bytes=24 * MIB,
            threads=8,
            common=[CommonSpec("yolov5-weights", 8 * MIB, initializer=True)],
            preload=[PreloadFile("/app/classes.txt", b"person\ncar\ndog\n")],
            bg_mmu_ops_per_tick=16,
            bg_copy_ops_per_tick=12,
            bg_faults_per_tick=1.0,
            bg_ve_per_tick=0.8,
            reclaim_pages_per_tick=2,
            common_touch_stride=32 * 1024,
            init_compute_cycles=300_000_000,
        )

    def default_request(self) -> bytes:
        rng = np.random.default_rng(self.seed + 3)
        n = max(int(self.images * self.scale), 2)
        return rng.integers(0, 255, size=n * IMG * IMG, dtype=np.uint8).tobytes()

    def fleet_request(self, secret: bytes, index: int,
                      filler: bytes) -> bytes:
        # the client's secret overwrites the first image's leading pixels
        request = self.default_request()
        return secret + request[len(secret):]

    # ------------------------------------------------------------------ #

    def _detect(self, image: np.ndarray) -> list[tuple[int, float]]:
        """Conv -> ReLU -> global pool -> box head (real math)."""
        feats = []
        for kernel in self.filters:
            acc = np.zeros((IMG - 2, IMG - 2), dtype=np.float32)
            for dy in range(3):
                for dx in range(3):
                    acc += kernel[dy, dx] * image[dy:dy + IMG - 2, dx:dx + IMG - 2]
            feats.append(np.maximum(acc, 0).mean())
        scores = np.array(feats, dtype=np.float32) @ self.head
        cls = int(np.argmax(scores))
        return [(cls, float(scores[cls]))]

    def serve(self, rt, request: bytes) -> bytes:
        n = len(request) // (IMG * IMG)
        if n == 0:
            raise ValueError("request carries no images")
        buf_va = rt.malloc(n * IMG * IMG)
        results = []
        for i in range(n):
            raw = np.frombuffer(
                request[i * IMG * IMG:(i + 1) * IMG * IMG], dtype=np.uint8)
            image = raw.reshape(IMG, IMG).astype(np.float32) / 255.0
            rt.touch_range(buf_va + i * IMG * IMG, IMG * IMG, write=True)
            # whole weight set swept per image, one page per 32 KiB chunk
            rt.touch_common("yolov5-weights", stride=32 * 1024)
            rt.parallel_for(64, CYCLES_PER_ITEM, sync_every=1)
            (cls, score), = self._detect(image)
            results.append(f"{i}:{cls}:{score:.3f}")
        output = ";".join(results).encode()
        rt.send_output(output)
        return output
