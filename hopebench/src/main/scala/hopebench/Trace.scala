package hopebench

import com.fasterxml.jackson.databind.ObjectMapper
import scala.collection.mutable.ArrayBuffer

/** Spans recorded from the benchmark's own code around its calls into the
  * program's layers. A span has a name, a start and an end, the span that
  * was open when it began, and a count of operations it covers. Spans stay
  * in memory and are written out once, when the run ends. When tracing is
  * off nothing is recorded and `span` only runs its body.
  */
final class Tracer(val on: Boolean) {
  import Tracer.Span

  private val spans = ArrayBuffer.empty[Span]
  private var open = List.empty[Span]

  def span[A](name: String, count: Long = 1)(body: => A): A = spanOf(name, (_: A) => count)(body)

  /** A span whose operation count is read off the body's result. */
  def spanOf[A](name: String, count: A => Long)(body: => A): A =
    if (!on) body
    else {
      val s = Span(spans.length, open.headOption.fold(-1)(_.id), name, System.nanoTime(), 0L, 0L)
      spans += s
      open = s :: open
      try {
        val r = body
        s.count = count(r)
        r
      } finally { s.end = System.nanoTime(); open = open.tail }
    }

  def size: Int = spans.length

  /** Total duration of all spans called `name`, in ns. */
  def totalNs(name: String): Long = spans.iterator.filter(_.name == name).map(s => s.end - s.start).sum

  /** Durations of the spans called `name`, in ns, in the order they ran. */
  def durationsNs(name: String): Seq[Long] = spans.iterator.filter(_.name == name).map(s => s.end - s.start).toSeq

  /** One JSON object per span, with its self time: the duration minus the
    * part covered by its child spans.
    */
  def jsonLines: Iterator[String] = {
    val childNs = new Array[Long](spans.length)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.end - s.start)
    val json = new ObjectMapper
    spans.iterator.map { s =>
      json.writeValueAsString(json.createObjectNode()
        .put("id", s.id).put("parent", s.parent).put("name", s.name)
        .put("start_ns", s.start).put("end_ns", s.end).put("count", s.count)
        .put("self_ns", s.end - s.start - childNs(s.id)))
    }
  }
}

object Tracer {
  private final case class Span(id: Int, parent: Int, name: String, start: Long, var end: Long, var count: Long)
}
