"""Write a Dataset to the CSV layout that `featforge.data_core.load_csv` reads."""

import csv


def save_csv(dataset, path, target_column: str = "target") -> None:
    """Features then target, one header row; round-trips through load_csv to 1e-12."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [target_column])
        for i in range(dataset.n_rows):
            writer.writerow(
                [repr(float(v)) for v in dataset.samples[i]]
                + [repr(float(dataset.target[i]))]
            )
