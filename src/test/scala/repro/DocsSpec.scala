package repro

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** DESIGN.md describes the code that exists: its module list (§3) names
  * every main source file.
  */
class DocsSpec extends AnyFunSuite {

  private def scalaFiles(dir: String): Seq[Path] = {
    val walk = Files.walk(Paths.get(dir))
    try walk.iterator.asScala.filter(_.toString.endsWith(".scala")).toList
    finally walk.close()
  }

  test("DESIGN.md §3's module list names every .scala file under src/main/scala and jobs/") {
    val design = new String(Files.readAllBytes(Paths.get("DESIGN.md")), UTF_8)
    val from = design.indexOf("### Modules")
    val until = design.indexOf("### Key design decisions")
    assert(from >= 0 && until > from, "DESIGN.md §3 lost its Modules or Key design decisions heading")
    val modules = design.substring(from, until)
    val files = scalaFiles("src/main/scala") ++ scalaFiles("jobs")
    assert(files.size > 20, s"found only ${files.size} source files; is the working directory the repo root?")
    val missing = files.filterNot { f =>
      s"(?<![\\w.])${java.util.regex.Pattern.quote(f.getFileName.toString)}".r.findFirstIn(modules).isDefined
    }
    assert(missing.isEmpty, s"not named in DESIGN.md §3's module list: ${missing.mkString(", ")}")
  }
}
