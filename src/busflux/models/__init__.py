"""Seeded, from-scratch regression models and their evaluation tooling."""
