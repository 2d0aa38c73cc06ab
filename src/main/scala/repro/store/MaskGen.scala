package repro.store

import repro.core.{Mask, Roi}

/** One row of the mask catalog — the repo's realisation of the paper's
  * `MasksDatabaseView` (§2.1) plus the per-image foreground-object bounding
  * box that the paper obtains from YOLOv5 (used when `roi = object`) and a
  * predicted class used by the multi-query workload generator (§4.5).
  */
final case class CatalogRow(
    mask_id: Long,
    image_id: Long,
    model_id: Int,
    mask_type: Int,
    w: Int,
    h: Int,
    path: String,
    ox1: Int,
    oy1: Int,
    ox2: Int,
    oy2: Int,
    pred_class: Int,
)

/** A synthetic mask dataset definition: `nImages` images, `nModels` saliency
  * maps per image (one per model), each `w × h`. Deterministic in `seed`.
  */
final case class MaskDatasetDef(
    name: String,
    nImages: Int,
    nModels: Int,
    w: Int,
    h: Int,
    seed: Long,
    nClasses: Int = 20,
) {
  def nMasks: Int = nImages * nModels
  def maskIds: Range = 0 until nMasks
  def imageOf(maskId: Long): Long = maskId / nModels
  def modelOf(maskId: Long): Int = (maskId % nModels).toInt + 1
}

/** Deterministic synthetic saliency-map generator.
  *
  * Substitutes for the paper's GradCAM maps over WILDS/ImageNet (see
  * DESIGN.md): each image has a foreground object (a Gaussian blob whose
  * 2σ-box doubles as the YOLO-style object bbox); each model's mask for that
  * image is the blob (with per-model peak/width jitter) over low background
  * noise. A fraction of masks are "dispersed" — salient values scattered
  * across the background, mimicking the maliciously-modified / shortcut
  * examples of the paper's scenarios — so that CHI bound tightness and the
  * Case 1/2/3 split of the filter stage are exercised non-trivially.
  */
object MaskGen {

  private def rng(seed: Long, id: Long, salt: Long): java.util.Random =
    new java.util.Random(seed * 1_000_003L + id * 7_919L + salt)

  /** Foreground-object geometry for an image: (centerX, centerY, sigma). */
  private def objectGeom(ds: MaskDatasetDef, imageId: Long): (Double, Double, Double) = {
    val r = rng(ds.seed, imageId, 1)
    val sigma = (0.05 + 0.07 * r.nextDouble()) * math.min(ds.w, ds.h)
    val cx = sigma * 2 + r.nextDouble() * (ds.w - 4 * sigma)
    val cy = sigma * 2 + r.nextDouble() * (ds.h - 4 * sigma)
    (cx + 1, cy + 1, sigma) // 1-indexed pixel coordinates
  }

  /** The YOLO-style object bounding box of an image (2σ around the blob). */
  def objectBox(ds: MaskDatasetDef, imageId: Long): Roi = {
    val (cx, cy, s) = objectGeom(ds, imageId)
    Roi(
      math.max(1, (cx - 2 * s).floor.toInt),
      math.max(1, (cy - 2 * s).floor.toInt),
      math.min(ds.w, (cx + 2 * s).ceil.toInt),
      math.min(ds.h, (cy + 2 * s).ceil.toInt),
    )
  }

  /** True iff this mask has dispersed (background-heavy) saliency. */
  def isDispersed(ds: MaskDatasetDef, maskId: Long): Boolean =
    rng(ds.seed, maskId, 2).nextDouble() < 0.15

  /** Generate the pixels of one mask. Deterministic in (ds.seed, maskId). */
  def generate(ds: MaskDatasetDef, maskId: Long): Mask = {
    val imageId = ds.imageOf(maskId)
    val (cx, cy, sigma0) = objectGeom(ds, imageId)
    val r = rng(ds.seed, maskId, 3)
    val data = new Array[Float](ds.w * ds.h)

    // Background: a near-zero tail (97% of pixels below 0.1) plus a
    // mask-specific *value band* — a fraction `bandDensity` of pixels drawn
    // uniformly from `bandCenter ± bandWidth`. Real saliency maps differ
    // qualitatively between images: for any fixed value range, only the
    // masks whose band overlaps it carry significant mass there. This
    // inter-mask heavy tail is what lets CHI bounds separate masks for
    // arbitrary (lv, uv) at query time; homogeneous noise would give every
    // mask nearly the same CP and defeat any bound.
    val bandCenter = 0.05 + 0.90 * r.nextDouble()
    val bandWidth = 0.03 + 0.07 * r.nextDouble()
    // Heavy-tailed density: half the masks have no band at all, and density
    // is cubed so most banded masks are faint and a few are heavy — giving
    // the near-empty-mass-plus-rare-heavy-mask profile of real saliency
    // collections (the regime where the paper's bounds prune hardest).
    val bandDensity = if (r.nextDouble() < 0.5) 0.0 else 0.40 * math.pow(r.nextDouble(), 3)
    var i = 0
    while (i < data.length) {
      val v =
        if (r.nextDouble() < bandDensity)
          math.min(0.999, math.max(0.0, bandCenter + (r.nextDouble() - 0.5) * 2 * bandWidth))
        else 0.12 * math.pow(r.nextDouble(), 6)
      data(i) = v.toFloat
      i += 1
    }

    def addBlob(bx: Double, by: Double, s: Double, peak: Double): Unit = {
      val x1 = math.max(1, (bx - 3 * s).floor.toInt)
      val x2 = math.min(ds.w, (bx + 3 * s).ceil.toInt)
      val y1 = math.max(1, (by - 3 * s).floor.toInt)
      val y2 = math.min(ds.h, (by + 3 * s).ceil.toInt)
      val inv = 1.0 / (2 * s * s)
      var x = x1
      while (x <= x2) {
        val dx = x - bx
        val base = (x - 1) * ds.h
        var y = y1
        while (y <= y2) {
          val dy = y - by
          val v = data(base + y - 1) + peak * math.exp(-(dx * dx + dy * dy) * inv)
          data(base + y - 1) = math.min(0.999, v).toFloat
          y += 1
        }
        x += 1
      }
    }

    if (isDispersed(ds, maskId)) {
      // Dispersed saliency: many small blobs scattered over the background.
      val n = 6 + r.nextInt(6)
      var k = 0
      while (k < n) {
        addBlob(
          1 + r.nextDouble() * (ds.w - 1),
          1 + r.nextDouble() * (ds.h - 1),
          sigma0 * (0.25 + 0.25 * r.nextDouble()),
          0.55 + 0.4 * r.nextDouble(),
        )
        k += 1
      }
      // A faint trace on the object itself.
      addBlob(cx, cy, sigma0 * 0.8, 0.25 + 0.2 * r.nextDouble())
    } else {
      // Concentrated saliency on the foreground object, jittered per model.
      val jitter = 0.85 + 0.3 * r.nextDouble()
      addBlob(cx, cy, sigma0 * jitter, 0.65 + 0.33 * r.nextDouble())
    }
    Mask(maskId, ds.w, ds.h, data)
  }

  /** The catalog row of one mask (metadata only; pixels are materialised
    * separately by [[MaskStore.materialize]]). Deterministic in `(ds, id)`.
    */
  def row(ds: MaskDatasetDef, store: MaskStore, id: Long): CatalogRow = {
    val imageId = ds.imageOf(id)
    val box = objectBox(ds, imageId)
    CatalogRow(
      mask_id = id,
      image_id = imageId,
      model_id = ds.modelOf(id),
      mask_type = 1, // saliency map
      w = ds.w,
      h = ds.h,
      path = store.pathFor(id),
      ox1 = box.x1, oy1 = box.y1, ox2 = box.x2, oy2 = box.y2,
      pred_class = (imageId % ds.nClasses).toInt,
    )
  }

  /** The full, deterministic catalog of a dataset, by ascending mask id. */
  def catalog(ds: MaskDatasetDef, store: MaskStore): Seq[CatalogRow] = ds.maskIds.map(id => row(ds, store, id))
}
