"""Workload recipes: record → fit → regenerate (WfCommons/Redbench style).

The paper characterizes *production* data-analysis traffic; this package
closes the loop from one observed execution back to arbitrarily much
statistically matching synthetic load:

* :mod:`repro.recipes.instances` — serialize a ``run_mix`` execution (or
  a bare trace) into a validated, round-tripping JSON *instance*;
* :mod:`repro.recipes.fit` — fit per-user/per-pool *recipes* from an
  instance: workload mix, job-size ranges, inter-arrival rate, and
  Redbench-style repetitiveness (exact vs parameter-varied repeats);
* :mod:`repro.recipes.generate` — regenerate synthetic
  :class:`~repro.cluster.tenancy.WorkloadTrace` s of any length from a
  recipe, feeding straight back into ``run_mix``/``serve``;
* :mod:`repro.recipes.repbench` — measure the Hive materialization
  cache's payoff per repetitiveness bucket (Redbench's headline: cache
  wins grow with repetition).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(globals(), {
    "INSTANCE_SCHEMA_VERSION": "instances",
    "Instance": "instances",
    "InstanceJob": "instances",
    "InstanceSchemaError": "instances",
    "hive_plan_fingerprints": "instances",
    "instance_from_trace": "instances",
    "record_instance": "instances",
    "Recipe": "fit",
    "ScaleStats": "fit",
    "TemplateStats": "fit",
    "UserRecipe": "fit",
    "classify_repeats": "fit",
    "fit_recipe": "fit",
    "repetition_bucket": "fit",
    "generate_from_recipe": "generate",
    "BucketReport": "repbench",
    "RepetitionBenchReport": "repbench",
    "run_repetition_benchmark": "repbench",
})
