"""ordibench: compare ordinal-regression loss families under splits that do
not leak identities, and rank the outcomes with distribution-free statistics."""
