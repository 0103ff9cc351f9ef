//! Experiment runners, one per table/figure of the paper's evaluation.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`motivation`] | Figs. 1–2 (HCS resource thrashing, ~3× small-query slowdown) |
//! | [`accuracy`] | Table 3 + Fig. 6 (job model) and Tables 4–5 (task models) |
//! | [`query_time`] | Fig. 7 (query response-time prediction) |
//! | [`scheduling`] | Fig. 8 + Table 2 (SWRD vs HCS vs HFS on Bing/Facebook) |
//! | [`ablation`] | Our additional ablations (features, histograms, noise, map-join) |
//! | [`reproduce`] | All of the above from one configuration, in print order (`sapred reproduce`) |

pub mod ablation;
pub mod accuracy;
pub mod motivation;
pub mod query_time;
pub mod reproduce;
pub mod scheduling;
