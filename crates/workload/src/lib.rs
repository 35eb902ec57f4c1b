//! # evirel-workload — workloads for the evidential integration system
//!
//! Three generations of input data:
//!
//! * [`restaurant`] — the paper's running example, verbatim: the
//!   Minnesota Daily (`DB_A`) and Star Tribute (`DB_B`) restaurant
//!   databases of Table 1, over the global schema of Figure 2
//!   (Restaurant, Manager, Managed-by). These feed the
//!   table-reproduction harness and the integration example.
//! * [`survey`] — the §1.2 *group voting model*: a panel of food
//!   reviewers votes on best dish and rating, menus are classified
//!   into (possibly ambiguous) speciality classes, and the voting
//!   statistics consolidate into evidence sets. This regenerates
//!   source data statistically identical to what the paper's news
//!   agencies would have collected.
//! * [`generator`] — parameterized random extended relations (tuple
//!   count, domain size, focal-set shape, key overlap, conflict bias)
//!   for the scaling benchmarks.

pub mod generator;
pub mod restaurant;
pub mod survey;

pub use generator::{GeneratorConfig, PairConfig};
pub use restaurant::{restaurant_db_a, restaurant_db_b, RestaurantDb};
pub use survey::{Survey, SurveyConfig};
