"""The train/test scorer as it was before one fit grew every fold's forest over all rows.

Test oracle only: ``predict_test_side`` slices a split's train rows and fits
the task model on them alone, verbatim from the former ``featforge.evaluator``;
``downstream_performance`` scores its predictions as that module did.
``featforge.evaluator.fold_predictions`` fits over all rows and grows each
fold's forest from its train rows, and must give the same predictions.
"""

from __future__ import annotations

import numpy as np

from featforge.data_core import SplitPlan, Task
from featforge.evaluator import KNN_K, ModelSpec, knn_anomaly_scores, reward, train_random_forest


def predict_test_side(features, target, task: Task, spec: ModelSpec, split: SplitPlan) -> np.ndarray:
    """Fit the task model on the train side; its predictions for the test side.

    Classification and regression return random-forest predictions, outlier
    detection returns KNN anomaly scores.
    """
    features = np.asarray(features, dtype=float)
    target = np.asarray(target, dtype=float)
    tr = split.train_indices
    te = split.test_indices
    if len(tr) == 0 or len(te) == 0:
        raise ValueError("degenerate split")
    if task is Task.OUTLIER_DETECTION:
        return knn_anomaly_scores(features[tr], features[te], k=min(KNN_K, len(tr) - 1))
    model = train_random_forest(features[tr], target[tr], spec, classification=task is Task.CLASSIFICATION)
    return model.predict(features[te])


def downstream_performance(features, target, task: Task, spec: ModelSpec, split: SplitPlan) -> float:
    pred = predict_test_side(features, target, task, spec, split)
    return reward(pred, np.asarray(target, dtype=float)[split.test_indices], task)
