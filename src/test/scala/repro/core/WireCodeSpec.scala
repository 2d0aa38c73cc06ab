package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.BenchData
import repro.store.MaskGen

/** The CHI stream's code ([[CellCounts]]) over a whole domain and over real
  * masks: every mask of a tiny universe reads back with the words it was
  * written from, in at most the bounded-integer code's bits plus the table,
  * and ImageNet-lite indexes stay at their measured size.
  */
class WireCodeSpec extends AnyFunSuite {
  import Fixtures._

  private def roundTrip[A](a: A): A = {
    val b = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(b)
    out.writeObject(a)
    out.close()
    new ObjectInputStream(new ByteArrayInputStream(b.toByteArray)).readObject().asInstanceOf[A]
  }

  /** The stream of `keys`' indexes of `w × h` masks from `words`, written and read back. */
  private def reread(cfg: ChiConfig, w: Int, h: Int, keys: Array[Long], words: Array[Long]): CellCounts =
    CellCounts.read(cfg, w, h, CellCounts.bytes(CellCounts(cfg, w, h, keys, CellCounts.NoMembers, words)))

  test("every 2x3 mask over the edge floats of ChiConfig(1, 2, 3) reads back in one slab and alone, within the bounded code and its table") {
    val cfg = ChiConfig(1, 2, 3)
    val masks = universe(2, 3, edgeFloats(cfg)).toVector
    // Six values per pixel; cells of 2 pixels and, in the partial last row, 1: contexts c = 1 and 2, a 10-bit table.
    assert(edgeFloats(cfg).size == 6 && masks.size == 46656 && tableBits(cfg, 2, 3) == 10)
    val indexes = masks.map(m => ChiIndex.build(m, cfg))
    val slab = ChiSlab.of(cfg, indexes.map(i => i.maskId -> i))
    val back = reread(cfg, 2, 3, slab.keys.map(_.toLong), slab.words)
    assert(back.keys.toSeq == masks.map(_.id) && back.words.toSeq == slab.words.toSeq)
    assert(back.bits == wireBits(masks, cfg) && back.bits <= masks.map(plainBits(_, cfg)).sum + 10)
    assert(roundTrip(slab).words.toSeq == slab.words.toSeq)
    masks.zip(indexes).foreach { case (m, i) =>
      val alone = reread(cfg, 2, 3, Array(m.id), i.words)
      assert(alone.words.toSeq == i.words.toSeq, s"mask ${m.id}")
      assert(alone.bits <= plainBits(m, cfg) + 10, s"mask ${m.id}: ${alone.bits} bits")
      val java = roundTrip(i)
      assert(java.maskId == m.id && java.words.toSeq == i.words.toSeq, s"mask ${m.id}")
    }
  }

  test("ImageNet-lite mask indexes serialise in at most 90 bytes each on average") {
    val bd = BenchData.imagenet
    val masks = (0L until 2000L).map(MaskGen.generate(bd.ds, _))
    val slab = ChiSlab.of(bd.cfg, masks.map(m => m.id -> ChiIndex.build(m, bd.cfg)))
    val b = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(b)
    out.writeObject(slab)
    out.close()
    val perIndex = b.size.toDouble / masks.size
    assert(perIndex <= 90, f"$perIndex%.1f bytes per serialised mask index")
    assert(roundTrip(slab).words.toSeq == slab.words.toSeq)
  }
}
