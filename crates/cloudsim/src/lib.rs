//! The cloud platform model: regions, VMs, network tiers, storage,
//! billing, and cron scheduling.
//!
//! CLASP's orchestration layer (§3.2) drives Google Cloud through its
//! APIs: create VMs across availability zones, apply `tc` rate limits,
//! run hourly cron jobs, upload results to a storage bucket, and watch
//! the bill (the paper: "egress traffic, cloud storage, and virtual
//! machines costed over USD 6k per month, limited our deployment").
//! This crate is that provider:
//!
//! * [`provider`] — data-driven provider profiles (regions, tiers,
//!   prices, interconnect policy) and multi-provider world specs;
//! * [`vm`] — machine types, VM lifecycle, per-VM `tc` caps;
//! * [`bucket`] — an object store for raw results;
//! * [`billing`] — the price schedule and usage metering;
//! * [`cron`] — hourly scheduling with randomized server order;
//! * [`quota`] — VM quotas and the budget→servers arithmetic that capped
//!   the paper's deployment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod billing;
pub mod bucket;
pub mod cron;
pub mod provider;
pub mod quota;
pub mod vm;

pub use billing::{Billing, PriceSchedule};
pub use bucket::Bucket;
pub use cron::CronSchedule;
pub use provider::{
    InterconnectKind, InterconnectPolicy, InterconnectSpec, ProviderProfile, RegionSpec,
    TierPolicy, WorldSpec, ZoneStyle,
};
pub use quota::Quota;
pub use vm::{CloudApi, MachineType, Vm};

/// The paper's GCP region table — six measurement regions plus us-west4
/// for the variability analysis — as [`ProviderProfile::gcp`] serves it.
#[cfg(test)]
mod region {
    mod tests {
        use crate::provider::ProviderProfile;
        use simnet::geo::CityDb;

        #[test]
        fn seven_regions_defined() {
            let gcp = ProviderProfile::gcp();
            assert_eq!(gcp.regions.len(), 7);
            assert!(gcp.region("us-west1").is_some());
            assert!(gcp.region("europe-west1").is_some());
            assert!(gcp.region("mars-north1").is_none());
        }

        #[test]
        fn all_region_cities_resolve() {
            let cities = CityDb;
            for r in &ProviderProfile::gcp().regions {
                let id = r.city_id(&cities);
                assert_eq!(cities.get(id).name, r.city);
            }
        }

        #[test]
        fn zone_names() {
            let r = ProviderProfile::gcp().region("us-east1").unwrap();
            assert_eq!(r.zone_name(0), "us-east1-a");
            assert_eq!(r.zone_name(3), "us-east1-d");
        }

        #[test]
        #[should_panic(expected = "zone index")]
        fn zone_index_bounds() {
            ProviderProfile::gcp()
                .region("us-west1")
                .unwrap()
                .zone_name(3);
        }

        #[test]
        fn paper_region_groupings() {
            let gcp = ProviderProfile::gcp();
            assert_eq!(gcp.topo_regions().len(), 5);
            assert_eq!(gcp.diff_regions().len(), 3);
            assert_eq!(gcp.var_regions().len(), 6);
            assert!(gcp.diff_regions().iter().any(|r| r.name == "europe-west1"));
            assert!(gcp.var_regions().iter().all(|r| r.name.starts_with("us-")));
        }
    }
}
