"""Bad fixture: an attack module querying the target model directly."""


def leak_everything(model, X_adv):
    # Attacks must route queries through the scenario surface, not the model.
    confidences = model.predict_proba(X_adv)
    labels = model.predict(X_adv)
    # The unvalidated kernel behind predict_proba is a query too.
    raw = model._proba(X_adv)
    return confidences, labels, raw
