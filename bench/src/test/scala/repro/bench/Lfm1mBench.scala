package repro.bench

import repro.eval.Harness
import repro.kg.{KGBuilder, MLSynth}
import repro.rec.{Cafe, Pgpr}

/** Figures 14–15: the LFM1M validation — comprehensibility and diversity
  * of PGPR/CAFE paths vs ST/PCST summaries on the music KG.
  *
  * Published shape: identical orderings to ML1M (ST most comprehensible,
  * PCST most diverse).
  */
class Lfm1mBench extends BenchSupport {

  test("Figures 14-15: LFM1M comprehensibility and diversity") {
    comprehensibilityAndDiversity("fig14-15", KGBuilder.build(spark, MLSynth.lfm1m(spark, benchScale)),
      Seq(new Pgpr, new Cafe), Harness.Config(kSet = Seq(1, 5, 10), usersPerGender = 12,
        itemsHalf = 10, spreadUserPool = 200, groupSize = 10, itemGroupSize = 10))
  }
}
