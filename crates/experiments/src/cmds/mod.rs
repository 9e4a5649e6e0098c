//! One `fill` per regenerated artifact: its sweep and its rows.

pub mod ablations;
pub mod adaptive;
pub mod cluster;
pub mod dense;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod intra_epoch;
pub mod isgain;
pub mod summary;
pub mod table1;
pub mod theory;
pub mod variance;
