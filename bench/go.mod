// The benchmark is its own module so that it is built by its own build
// file; the path keeps it under stellar/, which is what lets it import
// stellar/internal/... from the checkout it runs in.
module stellar/bench

go 1.22

require stellar v0.0.0

replace stellar => ../
