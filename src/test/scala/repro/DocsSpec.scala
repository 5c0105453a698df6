package repro

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** DESIGN.md describes the code that exists: its module list (§3) names
  * every main source file, and every file it names exists.
  */
class DocsSpec extends AnyFunSuite {

  private def scalaFiles(dir: String): Seq[Path] = {
    val walk = Files.walk(Paths.get(dir))
    try walk.iterator.asScala.filter(_.toString.endsWith(".scala")).toList
    finally walk.close()
  }

  private lazy val modules: String = {
    val design = new String(Files.readAllBytes(Paths.get("DESIGN.md")), UTF_8)
    val from = design.indexOf("### Modules")
    val until = design.indexOf("### Key design decisions")
    assert(from >= 0 && until > from, "DESIGN.md §3 lost its Modules or Key design decisions heading")
    design.substring(from, until)
  }

  test("DESIGN.md §3's module list names every .scala file under src/main/scala and jobs/") {
    val files = scalaFiles("src/main/scala") ++ scalaFiles("jobs")
    assert(files.size > 20, s"found only ${files.size} source files; is the working directory the repo root?")
    val missing = files.filterNot { f =>
      s"(?<![\\w.])${java.util.regex.Pattern.quote(f.getFileName.toString)}".r.findFirstIn(modules).isDefined
    }
    assert(missing.isEmpty, s"not named in DESIGN.md §3's module list: ${missing.mkString(", ")}")
  }

  test("every .scala file DESIGN.md §3's module list names exists in the repo") {
    val named = "(?<![\\w.])\\w+\\.scala".r.findAllIn(modules).toSet
    assert(named.size > 20, s"found only ${named.size} file names in DESIGN.md §3")
    val existing = Seq("src/main/scala", "jobs", "src/test", "bench/src")
      .flatMap(scalaFiles).map(_.getFileName.toString).toSet
    val stale = named -- existing
    assert(stale.isEmpty, s"DESIGN.md §3 names files that do not exist: ${stale.toSeq.sorted.mkString(", ")}")
  }
}
