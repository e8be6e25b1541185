"""The six standing workloads, by name (later issues cite these names)."""

from perfbench.workloads.adhoc import AdhocLocal, AdhocRemote
from perfbench.workloads.cold_sampling import ColdSampling
from perfbench.workloads.exact_iceberg import ExactIceberg
from perfbench.workloads.warm_monitoring import WarmMonitoring
from perfbench.workloads.write_mix import WriteMix

WORKLOADS = {
    cls.name: cls
    for cls in (ColdSampling, WarmMonitoring, ExactIceberg, AdhocLocal, AdhocRemote, WriteMix)
}
