package repro.bench

import repro.eval.Harness
import repro.kg.{KGBuilder, MLSynth}
import repro.rec.{Pearlm, Plm}

/** Figures 12–13: the language-model baselines PLM and PEARLM (PLMR) on
  * ML1M-sim — comprehensibility and diversity only, the two top-rated
  * metrics of the user study.
  *
  * Published shape: ST improves comprehensibility over both LM baselines;
  * PLM/PEARLM paths are more diverse than PGPR/CAFE paths, and PCST
  * enhances diversity further.
  */
class ExtraBaselinesBench extends BenchSupport {

  test("Figures 12-13: PLM and PEARLM comprehensibility and diversity") {
    comprehensibilityAndDiversity("fig12-13", KGBuilder.build(spark, MLSynth.ml1m(spark, benchScale)),
      Seq(new Plm, new Pearlm), Harness.Config(kSet = Seq(1, 3, 5, 10), usersPerGender = 15,
        itemsHalf = 10, spreadUserPool = 200, groupSize = 10, itemGroupSize = 10))
  }
}
