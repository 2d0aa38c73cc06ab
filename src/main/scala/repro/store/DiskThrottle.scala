package repro.store

import java.util.concurrent.atomic.AtomicLong
import java.util.concurrent.locks.LockSupport

/** Simulated provisioned-bandwidth disk.
  *
  * The paper's evaluation runs on EBS gp3 volumes provisioned at 125 MiB/s,
  * and shows all baselines saturating exactly that bandwidth (§4.1–4.2). On
  * this container, mask files sit in the OS page cache and read at memory
  * speed, which would erase the paper's bottleneck entirely. This throttle
  * restores it: a global token-bucket that serialises *all* mask-read bytes
  * through a configurable bandwidth, shared across driver and executor
  * threads exactly like a single disk. Unit tests leave it disabled
  * (bandwidth 0 = unlimited); benchmarks enable 125 MiB/s to mirror the
  * paper's machine. Documented as a substitution in DESIGN.md.
  */
object DiskThrottle {

  @volatile private var bytesPerSec: Long = 0L

  /** Cursor (ns timestamp) up to which the simulated disk is busy. */
  private val busyUntil = new AtomicLong(0L)

  /** Set the simulated bandwidth in MiB/s; 0 disables throttling. */
  def setBandwidthMiBps(mbps: Double): Unit =
    bytesPerSec = if (mbps <= 0) 0L else (mbps * 1024 * 1024).toLong

  /** The simulated bandwidth in MiB/s; 0 when throttling is off. */
  def bandwidthMiBps: Double = bytesPerSec.toDouble / (1024 * 1024)

  def isEnabled: Boolean = bytesPerSec > 0

  /** Account a read of `bytes` and block until the shared disk would have
    * delivered it.
    */
  def acquire(bytes: Long): Unit = {
    val bps = bytesPerSec
    if (bps <= 0) return
    val durNs = bytes * 1_000_000_000L / bps
    val now = System.nanoTime()
    val end = busyUntil.updateAndGet(c => math.max(c, now) + durNs)
    val waitNs = end - now
    if (waitNs > 0) LockSupport.parkNanos(waitNs)
  }
}
