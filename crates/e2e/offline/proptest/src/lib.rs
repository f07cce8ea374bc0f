//! Resolution-only stand-in: no workspace target built by lingua-e2e uses proptest.
