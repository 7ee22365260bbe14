"""Table 3 — evaluated methods and their time complexities.

Prints the method registry: the 13 implemented competitors plus the
three HOPE-family methods, grouped by category, with the complexity
strings from the paper's Table 3.
"""
import _session  # noqa: F401  (sys.path setup)

from repro.baselines import BASELINES, OUR_METHODS


def main() -> None:
    print(f"{'Algorithm':<16s} {'Category':<18s} Time complexity")
    print("-" * 70)
    for name, (_, cat, cx) in BASELINES.items():
        print(f"{name:<16s} {cat:<18s} {cx}")
    for name, (_, cx) in OUR_METHODS.items():
        print(f"{name:<16s} {'Our Solutions':<18s} {cx}")


if __name__ == "__main__":
    main()
