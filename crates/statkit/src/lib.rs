//! # statkit — self-contained statistics toolkit
//!
//! Statistical machinery for the SIGCOMM 1993 sampling-methodology
//! reproduction. Everything the paper's evaluation needs is implemented
//! here from scratch (no external statistics dependency):
//!
//! * streaming central moments — mean, variance, skewness, kurtosis
//!   ([`moments`]), as reported in the paper's Table 2;
//! * exact quantiles and summary rows ([`mod@quantile`], [`summary`]) matching
//!   the Table 2/3 format (min/5%/25%/median/75%/95%/max/mean/σ);
//! * special functions ([`special`]): `ln Γ`, regularized incomplete gamma,
//!   `erf` — the numerical basis of the χ² distribution;
//! * the χ² distribution ([`chi2`]): the p-values of the χ² test the
//!   paper applies to its 1-in-50 systematic samples (§5.2, §6);
//! * Kolmogorov–Smirnov and Anderson–Darling tests ([`ks`], [`ad`]) — the
//!   alternatives the paper cites as "difficult to apply to wide-area
//!   network traffic data";
//! * boxplot five-number summaries with 1.5·IQR whiskers ([`boxplot`]),
//!   matching the paper's Figure 6 footnote;
//! * seeded random distributions ([`rand_ext`]) used by the synthetic
//!   workload generator.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod acf;
pub mod ad;
pub mod boxplot;
pub mod chi2;
pub mod inversion;
pub mod ks;
pub mod moments;
pub mod quantile;
pub mod rand_ext;
pub mod special;
pub mod summary;

pub use acf::{acf, lag1, white_noise_band};
pub use ad::AndersonDarling;
pub use boxplot::Boxplot;
pub use chi2::{chi2_cdf, chi2_sf};
pub use inversion::{
    detection_probability, em_invert, em_invert_with, naive_scaling, syn_flow_count, tail_rescale,
    EmConfig, FlowEstimate, InversionError,
};
pub use ks::{ks_two_sample, KsTest};
pub use moments::Moments;
pub use quantile::{quantile, quantile_sorted};
pub use summary::SummaryRow;
