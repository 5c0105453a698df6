package repro

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** DESIGN.md describes the code that exists: its module list (§3) names
  * every main source file, and every file it names exists; and the docs
  * name only members that exist.
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

  private def read(p: Path): String = new String(Files.readAllBytes(p), UTF_8)

  test("every Type.member that DESIGN.md, README.md and Scaladoc links name is declared in Type.scala") {
    // Main and jobs/ sources by type name; a type with no file of its own
    // (`EdgeCost`, `System`) is not checked.
    val sources = (scalaFiles("src/main/scala") ++ scalaFiles("jobs"))
      .map(f => f.getFileName.toString.stripSuffix(".scala") -> read(f)).toMap
    val ref = "(?<![\\w.])([A-Z]\\w*)\\.([A-Za-z_]\\w*)".r
    val inDocs = for {
      doc <- Seq("DESIGN.md", "README.md")
      span <- "`([^`\n]+)`".r.findAllMatchIn(read(Paths.get(doc))).map(_.group(1))
      m <- ref.findAllMatchIn(span)
    } yield (doc, m.group(1), m.group(2))
    val inLinks = for {
      file <- scalaFiles("src/main/scala") ++ scalaFiles("jobs")
      link <- "\\[\\[([^\\]]+)\\]\\]".r.findAllMatchIn(read(file)).map(_.group(1))
      m <- "([A-Z]\\w*)\\.([A-Za-z_]\\w*)".r.findFirstMatchIn(link) // past a package prefix
    } yield (file.getFileName.toString, m.group(1), m.group(2))
    val checked = (inDocs ++ inLinks).filter { case (_, tpe, member) => member != "scala" && sources.contains(tpe) }
    assert(checked.size > 40, s"found only ${checked.size} references to check")
    val stale = checked.filterNot { case (_, tpe, member) =>
      s"\\b(def|val|var|class|object|trait)\\s+${java.util.regex.Pattern.quote(member)}\\b".r
        .findFirstIn(sources(tpe)).isDefined
    }
    assert(stale.isEmpty, "names of undeclared members: " +
      stale.distinct.map { case (where, tpe, member) => s"$where: $tpe.$member" }.mkString(", "))
  }
}
